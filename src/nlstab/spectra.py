"""Eigenvalue diagnostics for the assembled operators.

Symmetric spectra give the negative index and kernel dimension; products
with the symplectic matrix J give growth rates of the linearized flow.
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


def _translation_basis(op):
    """The operator's translation modes scaled to unit norm, one per
    column, or None when the base wave has none."""
    modes = op.translation_modes()
    if not modes:
        return None
    return np.stack([vec / np.linalg.norm(vec) for vec in modes], axis=1)


def sym_spectrum(op, keep_vectors=8, dense_limit=9000):
    """Symmetric eigensolve with kernel/negative-index classification.

    Dense solves up to ``dense_limit`` unknowns; larger operators use a
    shift-inverted sparse solve of the near-zero window plus a
    smallest-algebraic solve for the bottom of the spectrum (the counts
    then cover that window, which holds every localized negative mode of
    these operators).

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
    if op.shape[0] <= dense_limit:
        dense = op.dense()
        w = scipy.linalg.eigh(dense, eigvals_only=True, driver="evd")
        w_sub, v_sub = scipy.linalg.eigh(dense, driver="evr",
                                         subset_by_value=(-screen, screen))
    else:
        import scipy.sparse.linalg as spl
        k_near = min(24, op.shape[0] - 2)
        w_sub, v_sub = spl.eigsh(op.matrix, k=k_near, sigma=-1e-6,
                                 which="LM")
        # catch the bottom of the spectrum with a deep shift-invert
        sigma_low = -op.pot_scale - 0.5
        w_low, v_low = spl.eigsh(op.matrix, k=4, sigma=sigma_low, which="LM")
        fresh = [i for i, lam in enumerate(w_low)
                 if np.min(np.abs(w_sub - lam)) > 1e-9]
        if fresh:
            w_sub = np.concatenate([w_low[fresh], w_sub])
            v_sub = np.concatenate([v_low[:, fresh], v_sub], axis=1)
        order = np.argsort(w_sub)
        w_sub, v_sub = w_sub[order], v_sub[:, order]
        w = w_sub
        keep_window = np.abs(w_sub) <= screen
        w_sub, v_sub = w_sub[keep_window], v_sub[:, keep_window]
    ncomp = op.n_components
    basis = _translation_basis(op)
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
                translationish = False
                if basis is not None:
                    coeff, *_ = np.linalg.lstsq(basis, vec, rcond=None)
                    translationish = (np.linalg.norm(vec - basis @ coeff)
                                      <= 0.5 * np.linalg.norm(vec))
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
                          kernel_vecs[:keep_vectors], thr, spurious=len(drop))


def nondegeneracy_check(base, c, spec=None, kind=None, expected_translations=None):
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
    if expected_translations is None:
        expected_translations = grid.dim
    basis = _translation_basis(op)
    worst = 0.0
    for vec in report.kernel_vectors:
        resid = 1.0
        if basis is not None:
            coeff, *_ = np.linalg.lstsq(basis, vec, rcond=None)
            resid = np.linalg.norm(vec - basis @ coeff) / np.linalg.norm(vec)
        worst = max(worst, resid)
    ok = (report.kernel_dim == expected_translations
          and (not report.kernel_vectors or worst <= 1e-3))
    return {
        "verdict": "non-degenerate" if ok else "degenerate/invalid base",
        "kernel_dim": report.kernel_dim,
        "expected": expected_translations,
        "worst_projection_residual": worst,
        "n_negative": report.n_negative,
        "zero_threshold": report.zero_threshold,
        "report": report,
    }


def _realify(vec):
    re, im = np.real(vec), np.imag(vec)
    return re if np.linalg.norm(re) >= np.linalg.norm(im) else im


def ham_spectrum(base=None, c=0.0, kind="JLc", spec=None, k=None, op=None,
                 boundary_filter=True):
    """Dense eigensolve of J * (symmetric factor).

    Reports the full complex spectrum, the maximal real part over
    localized modes, the +/- pairing defect, and (when positive growth is
    present) the unstable rate and its localized eigenvector.
    """
    if op is None:
        factor = {"JLc": "Lc", "JMc": "Mc", "JLcK": "LcPlusK2"}[kind]
        op = assemble(factor, base=base, c=c, spec=spec or base.spec, k=k)
    jmat = j_matrix(op.grid)
    mat = (jmat @ op.matrix).toarray()
    w, v = scipy.linalg.eig(mat)
    order = np.argsort(-np.real(w))
    w, v = w[order], v[:, order]

    # +/- pairing defect over the whole spectrum (chunked pairwise scan)
    defect = 0.0
    for start in range(0, w.size, 256):
        block = w[start: start + 256]
        dists = np.abs(block[:, None] + w[None, :]).min(axis=1)
        defect = max(defect, float(dists.max()))

    max_real, rate, mode = 0.0, None, None
    for i, lam in enumerate(w):
        if np.real(lam) <= 1e-12:
            break
        if boundary_filter and op.grid.boundary == "truncated":
            if boundary_mass_fraction(op.grid, v[:, i], 2) > 0.20:
                continue
        max_real = max(max_real, float(np.real(lam)))
        if rate is None and abs(np.imag(lam)) < 1e-8 * max(1.0, abs(lam)):
            rate = float(np.real(lam))
            mode = _realify(v[:, i])
    report = SpectralReport(kind, w, None, None, [], op.zero_threshold(),
                            max_real=max_real, pairing_defect=defect,
                            unstable_rate=rate)
    report.unstable_vector = mode
    report.eigenvectors = v
    report.operator = op
    return report


def unstable_pair(report):
    """Normalized eigenvectors for the +rate and -rate eigenvalues."""
    lam = report.unstable_rate
    if lam is None or lam <= 0.0:
        raise ValueError("no positive growth rate in this spectrum")
    w = report.eigenvalues
    v = report.eigenvectors
    i_plus = int(np.argmin(np.abs(w - lam)))
    i_minus = int(np.argmin(np.abs(w + lam)))
    wu = _realify(v[:, i_plus])
    ws = _realify(v[:, i_minus])
    return wu / np.linalg.norm(wu), ws / np.linalg.norm(ws)


# ---------------------------------------------------------------------------
# transverse wave-number bands

def transversal_band(base, c, spec=None, n_samples=7, ham_base=None,
                     k_outside=None):
    """Transverse instability band from the two lowest localized eigenvalues.

    Band = (sqrt(-lambda1) if lambda1 < 0 else 0, sqrt(-lambda0)); for each
    sampled wave number k the shifted operator is assembled and its growth
    rate recorded.  Also reports the admissible single-mode interval
    (max(sqrt(-lambda1), sqrt(-lambda0)/4), sqrt(-lambda0)).  A coarser
    `ham_base` may be supplied to keep the dense nonsymmetric solves of
    the k sweep affordable while the endpoints use the fine base.
    """
    spec = spec or base.spec
    op = assemble("Lc", base=base, c=c, spec=spec)
    rep = sym_spectrum(op)
    if rep.n_negative == 0 or rep.eigenvalues[0] >= 0.0:
        return {"band": None, "lambda0": float(rep.eigenvalues[0]),
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
    for k in list(inside) + list(outside):
        hrep = ham_spectrum(ham_base, c, kind="JLcK", spec=spec, k=float(k))
        sub = assemble("LcPlusK2", base=ham_base, c=c, spec=spec, k=float(k))
        sub_rep = sym_spectrum(sub)
        samples.append({
            "k": float(k),
            "inside": bool(k_lo < k < k_hi),
            "growth_rate": hrep.unstable_rate or 0.0,
            "max_real": hrep.max_real,
            "n_negative": sub_rep.n_negative,
            "kernel_dim": sub_rep.kernel_dim,
        })
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
        jit = j_inverse_apply(t_mode).ravel()
        jic = j_inverse_apply(c_mode).ravel()
        self.pair_denominator = float(c_mode.ravel() @ jit) * vol
        self._jit = jit
        self._jic = jic
        self._vol = vol

    def split(self, field):
        """Coefficients (a, b, c_u, c_s) and the remaining center part."""
        u = field.ravel()
        vol = self._vol
        d = self.pair_denominator
        b = float(u @ self._jit) * vol / d
        a = -float(u @ self._jic) * vol / d
        v = u - a * self.t_mode.ravel() - b * self.c_mode.ravel()
        mat = self.op.matrix
        c_u = float((mat @ v) @ self.w_s.ravel()) * vol / self.cross
        c_s = float((mat @ v) @ self.w_u.ravel()) * vol / self.cross
        v1 = v - c_u * self.w_u.ravel() - c_s * self.w_s.ravel()
        center = PairField.from_vector(field.grid, v1, field.rep)
        return a, b, c_u, c_s, center

    def center_constraint_residual(self, center):
        """How far a center field is from satisfying its defining pairings."""
        mat = self.op.matrix
        v = center.ravel()
        vol = self._vol
        scale = max(np.linalg.norm(v), 1e-300)
        vals = [float((mat @ v) @ self.w_u.ravel()) * vol,
                float((mat @ v) @ self.w_s.ravel()) * vol,
                float(v @ self._jit) * vol,
                float(v @ self._jic) * vol]
        return max(abs(x) for x in vals) / scale


def dichotomy_basis(base, c, branch, spec=None, kind=None, rate_floor=1e-8):
    """Build the +/- eigenmodes and generalized-kernel projectors at a wave.

    The speed-derivative direction comes from central differencing the
    branch profiles.  Raises if the cross pairing <op w_u, w_s> falls
    below `rate_floor` times the mode norms (a degenerate pairing would
    contradict the splitting and flags a discretization failure).
    """
    spec = spec or base.spec
    if kind is None:
        kind = "JMc" if base.profile.rep == "hydro" else "JLc"
    factor = {"JLc": "Lc", "JMc": "Mc"}[kind]
    op = ghost_symmetrized(assemble(factor, base=base, c=c, spec=spec))
    report = ham_spectrum(op=op)
    if report.unstable_rate is None:
        raise ValueError("no unstable mode: dichotomy basis needs growth")
    w_u, w_s = unstable_pair(report)
    t_mode = translation_mode(base.profile)
    idx = min(range(len(branch)), key=lambda i: abs(branch[i].c - c))
    c_mode = speed_derivative(branch, idx)
    basis = DichotomyBasis(report.operator, report.unstable_rate,
                           w_u, w_s, t_mode, c_mode)
    mode_scale = 1.0 * basis._vol
    if abs(basis.cross) < rate_floor * mode_scale:
        raise ValueError("degenerate pairing <op w_u, w_s> ~ %.3g" % basis.cross)
    return basis


def center_positivity_sample(basis, n_draws=50, rng=None, cutoff=0.2):
    """Quadratic-form positivity of the center block on random draws."""
    rng = rng or np.random.default_rng(7)
    grid = basis.op.grid
    violations = 0
    values = []
    for _ in range(n_draws):
        f = random_smooth_pair(grid, rng, cutoff=cutoff)
        *_co, center = basis.split(f)
        q = quadratic_form(basis.op, center)
        values.append(q)
        if q <= 0.0:
            violations += 1
    return violations, values
