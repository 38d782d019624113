"""Eigenvalue diagnostics for the assembled operators.

Symmetric spectra give the negative index and kernel dimension; products
with the symplectic matrix J give growth rates of the linearized flow.
Both come from sparse shift-invert eigensolves (Lanczos and Arnoldi),
the only eigensolvers of the package; dense eigensolves survive only as
test oracles.  Every ARPACK call stops at the relative residual
``_ARPACK_TOL``, not at machine precision: counts come from inertia,
not from the eigensolve, symmetric eigenvalues converge as the square
of the residual, and every growth rate is checked by its pairing
defect.  Every verdict takes the second variation Lc by default,
whether the wave is stored in (u1, u2) or as density/phase.

Truncating an unbounded domain turns essential spectrum into extended
"box" modes, so eigenvector mass near the boundary is used to separate
genuine localized modes from truncation artifacts before counting: any
mode carrying more than 20% of its mass within the outer 10% of the
domain (per side) is flagged spurious and logged, not counted.

Down the file, `dichotomy_basis` assembles the ingredients of the
invariant splitting E^u + E^s + E^e + (generalized kernel) used to bound
the linearized flow: the +/- growth eigenmodes, the translation and
speed-derivative directions, and the projector coefficients derived from
the conserved cross form <op u, v>, all in (u1, u2).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .grid import PairField, as_uv, translation_mode
from .operators import (_KERNEL_FACTOR, assemble, ghost_symmetrized,
                        j_inverse_apply, j_matrix, quadratic_form,
                        random_smooth_pair)
from .profiles import speed_derivative


class SpectralReport:
    """Sorted eigenvalues with localization-aware counts."""

    def __init__(self, kind, eigenvalues, n_negative, kernel_dim,
                 kernel_vectors, zero_threshold, spurious=0):
        self.kind = kind
        self.eigenvalues = eigenvalues
        self.n_negative = n_negative
        self.kernel_dim = kernel_dim
        self.kernel_vectors = kernel_vectors
        self.zero_threshold = zero_threshold
        self.spurious = spurious


def boundary_mass_fraction(grid, vec):
    """Fraction of the squared mass of a (u1, u2) pair vector within the
    outer 10% of each axis."""
    comps = np.asarray(vec).reshape(2, *grid.shape)
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
_ARPACK_TOL = 1e-10   # relative residual of every ARPACK eigenpair


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
    mat - shift*I is positive definite.
    """
    n = mat.shape[0]
    diag = mat.diagonal()
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    floor = float(np.min(diag - radius))
    shift = floor - 1e-2 * max(1.0, abs(floor))
    lu = _symmetric_lu(mat, shift)
    inverse = spl.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    w, v = spl.eigsh(mat, k=count, sigma=shift, which="LM", OPinv=inverse,
                     v0=_start_vector(n), tol=_ARPACK_TOL)
    order = np.argsort(w)
    return w[order], v[:, order]


def _pairs_below(op, bound):
    """The eigenpairs of a symmetric operator below ``bound``, sorted, as
    many as its inertia count gives (see ``sym_spectrum``)."""
    below = count_below(op, bound)
    n = op.matrix.shape[0]
    if 8 * below >= n:
        raise RuntimeError("the threshold %.3g is no kernel scale: %d of "
                           "%d eigenvalues lie below it" % (bound, below, n))
    if not below:
        return np.empty(0), np.empty((n, 0))
    w, v = _lowest_pairs(op.matrix, below)
    found = int(np.sum(w < bound))
    if found != below:
        raise RuntimeError("eigensolve found %d eigenvalues below %.3g where "
                           "the inertia count gives %d" % (found, bound, below))
    return w, v


def sym_spectrum(op):
    """Symmetric eigensolve with kernel/negative-index classification.

    The number of eigenvalues below the kernel threshold ``thr`` comes
    from an inertia count; exactly those eigenpairs are computed (none,
    and no eigensolve, when the count is 0), and the report's counts and
    eigenvalues cover them.  With n/8 or more below ``thr``, ``thr`` is
    no kernel scale: RuntimeError.

    Truncating the domain turns essential spectrum into artifact modes
    that can pollute the near-zero counts: boundary-concentrated modes
    (over 20% of their mass in the outer 10% of the domain per side) and
    interior box approximants of the continuum edge (large participation
    fraction).  A near-zero mode is counted as kernel if it projects onto
    the discrete translation modes of the base wave or is genuinely
    localized; artifact modes are excluded and reported in ``spurious``.
    """
    return _classified(op, *_pairs_below(op, op.zero_threshold()))


def _classified(op, w, v):
    """``sym_spectrum``'s report on the sorted eigenpairs (w, v) of op."""
    thr = op.zero_threshold()
    screen = 10.0 * max(thr, 0.05)
    basis = _orthonormal(op.translation_modes())
    drop = np.zeros(w.size, dtype=bool)   # truncation artifacts
    kernel_vecs = []
    extra_negative = 0   # localized non-translation modes inside the window
    gated = op.kind != "A"
    for i in np.flatnonzero(np.abs(w) <= screen):
        lam, vec = w[i], v[:, i]
        near_boundary = gated and (
            boundary_mass_fraction(op.grid, vec) > 0.20)
        extended = near_boundary or (
            gated and participation_fraction(vec) > 0.15)
        if abs(lam) <= thr:
            translationish = (basis is not None
                              and _outside(basis, vec) <= 0.5)
            if translationish or (basis is None and not extended):
                kernel_vecs.append(vec.copy())
            elif extended:
                drop[i] = True
            elif lam < 0.0:
                # genuine localized eigenvalue, merely blurred into
                # the window by the coarse-grid kernel residual
                extra_negative += 1
        elif near_boundary:
            drop[i] = True
    w_loc = w[~drop]
    n_neg = int(np.sum(w_loc < -thr)) + extra_negative
    return SpectralReport(op.kind, w_loc, n_neg, len(kernel_vecs),
                          kernel_vecs[:_KEEP_VECTORS], thr,
                          spurious=int(np.sum(drop)))


def nondegeneracy_check(base, c, spec=None, kind="Lc"):
    """Verdict on ker(op) = span{translation modes of the base wave}.

    The kernel dimension is compared against the number of translation
    symmetries and every kernel vector is projected onto the discrete
    translation modes; the verdict is non-degenerate iff the relative
    residual of every projection stays below
    max(1e-3, _KERNEL_FACTOR * op.kernel_residual()).  The kernel vectors
    resolve the translations only to the operator's own O(h^2) translation
    residual, which on the 64^2 radial bubble is 1.75e-2; where that
    residual is small the old fixed 1e-3 bound still applies.  The default
    operator is Lc, whatever the storage of the wave.
    """
    spec = spec or base.spec
    grid = base.profile.grid
    op = assemble(kind, base=base, c=c, spec=spec)
    residual = op.kernel_residual()
    bound = 1e-3 if residual is None else max(1e-3, _KERNEL_FACTOR * residual)
    report = sym_spectrum(op)
    basis = _orthonormal(op.translation_modes())
    worst = 0.0
    for vec in report.kernel_vectors:
        worst = max(worst, _outside(basis, vec))
    ok = (report.kernel_dim == grid.dim
          and (not report.kernel_vectors or worst <= bound))
    return {
        "verdict": "non-degenerate" if ok else "degenerate/invalid base",
        "kernel_dim": report.kernel_dim,
        "expected": grid.dim,
        "worst_projection_residual": worst,
        "residual_bound": bound,
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
    if op.k:
        return None
    gauge = op.gauge_mode()
    return _orthonormal(op.translation_modes()
                        + ([] if gauge is None else [gauge]))


def _growth(op, w, v):
    """(max real part, real rate, its mode) over the localized eigenpairs
    of J*op with positive real part; ``w`` sorted by decreasing real part.

    A mode with over 20% of its mass within the outer 10% of the domain
    is a truncation artifact and is skipped.  So is a
    mode with more than half of its norm in ``_kernel_span``: the Jordan
    blocks of the generalized kernel, which rounding scatters off zero.
    """
    span = _kernel_span(op)
    max_real, rate, mode = 0.0, None, None
    for i, lam in enumerate(w):
        if np.real(lam) <= 1e-12:
            break
        if boundary_mass_fraction(op.grid, v[:, i]) > 0.20:
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
    pairing defect (at most 1e-8, else RuntimeError).  Both solves stop
    at ARPACK's relative residual ``_ARPACK_TOL``, so the pairing defect
    is what vouches for the rate.  Returns
    (rate, max real part, pairing defect, (w_u, w_s)) with the modes of
    +rate and -rate ``_oriented``, or (None, max real part, None, None)
    without a real rate.  A solve that does not converge within
    ``_RESTARTS`` restarts raises ArpackNoConvergence.
    """
    mat = (j_matrix(op.grid) @ op.matrix).tocsc()
    start = _start_vector(mat.shape[0])
    w, v = spl.eigs(mat, k=_NEAR, sigma=shift, which="LM", v0=start,
                    tol=_ARPACK_TOL, maxiter=_RESTARTS)
    order = np.argsort(-np.real(w))
    max_real, rate, w_u = _growth(op, w[order], v[:, order])
    if rate is None:
        return None, max_real, None, None
    mirror, w_s = spl.eigs(mat, k=1, sigma=-rate, which="LM", v0=start,
                           tol=_ARPACK_TOL, maxiter=_RESTARTS)
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


def transversal_band(base, c, spec=None, *, n_samples, ham_base=None,
                     k_outside=None):
    """Transverse instability band from the two lowest localized eigenvalues.

    Band = (sqrt(-lambda1) if lambda1 < 0 else 0, sqrt(-lambda0)).  The
    base report holds only the eigenvalues below the kernel threshold;
    without a second one, lambda1 lies above it, so the band starts at 0
    and ``lambda1`` is None.  Also reports the admissible single-mode
    interval (max(sqrt(-lambda1), sqrt(-lambda0)/4), sqrt(-lambda0)).

    The sweep makes one symmetric eigensolve: Lc is assembled once on
    ``ham_base`` (default: ``base``), and each sampled wave number k reads
    its spectrum shifted by k^2.  ``_pairs_below`` gives Lc's eigenpairs
    below b = max over the samples of (thr_k - k^2), where thr_k is the
    kernel threshold of Lc + k^2 (RuntimeError when n/8 or more lie below
    b); each sample classifies, as ``sym_spectrum`` does, those pairs with
    lambda + k^2 < thr_k.  The
    growth rate of J*(Lc + k^2) is found by ``growth_near``, the shift
    continued from the previous sample's rate.

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
    lam1 = float(rep.eigenvalues[1]) if rep.eigenvalues.size > 1 else None
    if lam1 is not None and abs(lam1) <= rep.zero_threshold:
        lam1 = 0.0
    k_lo = np.sqrt(-lam1) if lam1 is not None and lam1 < 0.0 else 0.0
    k_hi = np.sqrt(-lam0)
    admissible = (max(k_lo, k_hi / 4.0), k_hi)

    ham = assemble("Lc", base=ham_base or base, c=c, spec=spec)
    inside = np.linspace(k_lo, k_hi, n_samples + 2)[1:-1]
    outside = [k_hi * 1.27] if k_outside is None else list(k_outside)
    subs = [ham.with_wave_number(float(k))
            for k in list(inside) + list(outside)]
    if subs:
        w, v = _pairs_below(ham, max(sub.zero_threshold() - sub.k ** 2
                                     for sub in subs))
    samples = []
    shift = 0.0
    for sub in subs:
        k = sub.k
        lifted = w + k ** 2
        keep = lifted < sub.zero_threshold()
        sub_rep = _classified(sub, lifted[keep], v[:, keep])
        rate, max_real, defect, _modes = growth_near(sub, shift)
        n_neg = sub_rep.n_negative
        if ((n_neg == 1 and sub_rep.kernel_dim == 0 and rate is None)
                or (n_neg == 0 and rate is not None)):
            raise RuntimeError(
                "index ledger broken at k=%.6g: n_negative(Lc+k^2) = %d but "
                "%s" % (k, n_neg, "no real growth rate" if rate is None
                        else "a real growth rate %.6g" % rate))
        samples.append({
            "k": k,
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


# ---------------------------------------------------------------------------
# dichotomy basis

_RATE_FLOOR = 1e-8   # least cross pairing <op w_u, w_s> over the mode norms
_CENTER_DRAWS = 50   # random draws of the center positivity sample


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
        is a central difference along the branch, so the identity
        op c_mode = J t_mode that would decouple it holds only to O(dc^2)
        (relative 0.18 at dc = 0.01 on the L = 200 line bubble).
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


def dichotomy_basis(base, c, branch, spec=None):
    """Build the +/- eigenmodes and generalized-kernel projectors at a wave.

    The operator is the ghost-symmetrized Lc, and every mode is in
    (u1, u2), whatever the storage of the waves.  The rate and the modes
    w_u, w_s come from ``unstable_mode``; the translation direction from
    the base wave and the speed-derivative direction from central
    differencing the branch profiles.  Raises if the cross pairing
    <op w_u, w_s> falls below `_RATE_FLOOR` times the mode norms (a
    degenerate pairing would contradict the splitting and flags a
    discretization failure).
    """
    spec = spec or base.spec
    op = ghost_symmetrized(assemble("Lc", base=base, c=c, spec=spec))
    found = unstable_mode(op)
    if found is None:
        raise ValueError("no unstable mode: dichotomy basis needs growth")
    rate, _max_real, _defect, (w_u, w_s) = found
    t_mode = translation_mode(as_uv(base.profile))
    idx = min(range(len(branch)), key=lambda i: abs(branch[i].c - c))
    c_mode = speed_derivative(branch, idx)
    basis = DichotomyBasis(op, rate, w_u, w_s, t_mode, c_mode)
    if abs(basis.cross) < _RATE_FLOOR * basis._vol:
        raise ValueError("degenerate pairing <op w_u, w_s> ~ %.3g" % basis.cross)
    return basis


def center_positivity_sample(basis):
    """Quadratic-form positivity of the center block on random draws."""
    rng = np.random.default_rng(7)
    grid = basis.op.grid
    violations = 0
    values = []
    for _ in range(_CENTER_DRAWS):
        f = random_smooth_pair(grid, rng, cutoff=0.2)
        *_co, center = basis.split(f)
        q = quadratic_form(basis.op, center)
        values.append(q)
        if q <= 0.0:
            violations += 1
    return violations, values
