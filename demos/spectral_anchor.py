"""Spectral anchor for the stationary dark soliton.

The second variation at the tanh profile decouples into two reflection-
less Schrodinger operators; the lower block is a well with ground energy
exactly -1/2, and the upper block carries the translation kernel.  The
inertia count and the shift-invert eigensolve reproduce the negative
index 1 / kernel dimension 1 picture that the stability machinery
assumes.
"""

import numpy as np

from nlstab.grid import GridSpec
from nlstab.operators import assemble
from nlstab.profiles import dark_soliton
from nlstab.spectra import nondegeneracy_check, sym_spectrum

grid = GridSpec(1, 40.0, 2048)
wave = dark_soliton(0.0, grid)
op = assemble("Lc", base=wave, c=0.0, spec=wave.spec)

report = sym_spectrum(op)
print("lowest localized eigenvalues:", report.eigenvalues[:4])
print("negative index :", report.n_negative)
print("kernel dim     :", report.kernel_dim)
print("zero threshold :", report.zero_threshold)
print("filtered modes :", report.spurious)
print("ground level vs -1/2:", report.eigenvalues[0] + 0.5)

check = nondegeneracy_check(wave, 0.0)
print("\nnon-degeneracy verdict:", check["verdict"])
print("kernel projection residual:", check["worst_projection_residual"])
