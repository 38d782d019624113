"""Slow traveling waves of the cubic-quintic law and their instability.

Continues the planar bubble to small speeds in density/phase variables,
records the momentum slope (negative: the instability side of the
criterion), cross-checks it against the linear-response formula
-(1/2)(M2^{-1} d_x rho0, d_x rho0), and extracts the unstable rate of
the linearized flow together with its block-product oracle.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from nlstab.functionals import momentum
from nlstab.grid import GridSpec
from nlstab.nonlinearity import cq_constants
from nlstab.operators import assemble, ghost_jacobian
from nlstab.profiles import (branch_momentum_sweep, continue_branch,
                             stationary_bubble, translation_mode)
from nlstab.spectra import unstable_mode

k = cq_constants(0.2, 1.0, 1.0)
grid = GridSpec(1, 30.0, 1024)
bubble = stationary_bubble(k, "line", grid)
print("planar bubble residual: %.2e" % bubble.residual_norm)

speeds = [0.01, 0.02, 0.03, 0.04, 0.05]
branch = continue_branch(bubble, speeds)
sweep = branch_momentum_sweep([bubble] + branch, spec=k.spec)
print("\n  c      P            dP/dc")
for s in sweep:
    slope = "%9.4f" % s.dpdc if s.dpdc is not None else "     -"
    print("%5.3f  %+.8f  %s" % (s.c, s.momentum, slope))

# linear-response slope at c = 0 (zero-flux second block, mean pinned)
op = assemble("Mc", base=bubble, c=0.0, spec=k.spec)
n = grid.size
m2 = ghost_jacobian(op)[n:, n:].tocsr()
drho = translation_mode(bubble.profile).c1.ravel()
ones = np.ones(n)
bord = sp.bmat([[m2, sp.csr_matrix(ones).T], [sp.csr_matrix(ones), None]],
               format="csc")
y = spsolve(bord, np.concatenate([drho, [0.0]]))[:n]
oracle = -0.5 * float(y @ drho) * grid.cell_volume
plus = continue_branch(bubble, [0.004])[0]
minus = continue_branch(bubble, [-0.004])[0]
fd = (momentum(plus.profile, "hydro", k.spec)
      - momentum(minus.profile, "hydro", k.spec)) / 0.008
print("\ndP/dc at c=0: finite differences %.6f, linear response %.6f"
      % (fd, oracle))

rate, _, defect, _ = unstable_mode(op)
m1 = op.matrix[:n, :n].toarray()
m2d = op.matrix[n:, n:].toarray()
lam = scipy.linalg.eigvals(m2d @ m1).real.min()
print("\nunstable rate of the linearized flow: %.8f" % rate)
print("block-product oracle sqrt(-min eig):  %.8f" % np.sqrt(-lam))
print("pairing defect of the +/- rate:       %.2e" % defect)
