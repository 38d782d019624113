"""Dense Hamiltonian eigensolves, kept as oracles for the sparse route.

``ham_spectrum`` computes every eigenpair of J * (symmetric factor) with
one dense ``eig``; ``unstable_pair`` reads the +/- rate modes off it.
They classify eigenpairs with the same filters as ``nlstab.spectra`` and
orient modes by the same sign convention, so sparse and dense results
compare directly.  A dense solve of 2N x 2N takes seconds from N = 1024
on.
"""

import numpy as np
import scipy.linalg

from nlstab.operators import assemble, j_matrix
from nlstab.spectra import _growth, _oriented, _realify


class HamiltonianSpectrum:
    """Every eigenpair of J * op, sorted by decreasing real part, with the
    maximal real part over localized modes, the +/- pairing defect and
    the real growth rate (None without one)."""

    def __init__(self, operator, eigenvalues, eigenvectors, max_real,
                 pairing_defect, unstable_rate):
        self.operator = operator
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.max_real = max_real
        self.pairing_defect = pairing_defect
        self.unstable_rate = unstable_rate


def ham_spectrum(base=None, c=0.0, kind="JLc", spec=None, k=None, op=None):
    """Dense eigensolve of J * (symmetric factor), as a HamiltonianSpectrum."""
    if op is None:
        factor = {"JLc": "Lc", "JMc": "Mc", "JLcK": "Lc"}[kind]
        op = assemble(factor, base=base, c=c, spec=spec or base.spec, k=k)
    mat = (j_matrix(op.grid) @ op.matrix).toarray()
    w, v = scipy.linalg.eig(mat)
    order = np.argsort(-np.real(w))
    w, v = w[order], v[:, order]

    # +/- pairing defect over the whole spectrum (chunked pairwise scan)
    defect = 0.0
    for start in range(0, w.size, 256):
        block = w[start: start + 256]
        dists = np.abs(block[:, None] + w[None, :]).min(axis=1)
        defect = max(defect, float(dists.max()))

    max_real, rate, _mode = _growth(op, w, v)
    return HamiltonianSpectrum(op, w, v, max_real, defect, rate)


def unstable_pair(report):
    """Oriented unit eigenvectors for the +rate and -rate eigenvalues."""
    lam = report.unstable_rate
    if lam is None or lam <= 0.0:
        raise ValueError("no positive growth rate in this spectrum")
    w = report.eigenvalues
    v = report.eigenvectors
    i_plus = int(np.argmin(np.abs(w - lam)))
    i_minus = int(np.argmin(np.abs(w + lam)))
    return (_oriented(_realify(v[:, i_plus])),
            _oriented(_realify(v[:, i_minus])))
