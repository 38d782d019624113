"""Dark solitons of the unit-background defocusing equation.

Builds the closed-form tanh family on a truncated line, verifies the
traveling-wave residual, and sweeps the renormalized momentum P(c),
whose positive slope is the stability side of the momentum criterion.
The sweep is checked against the closed form 2(d*nu - atan(nu/d)).
"""

import numpy as np

from nlstab.cli import write_csv
from nlstab.grid import GridSpec
from nlstab.profiles import (branch_momentum_sweep, dark_soliton,
                             dark_soliton_momentum_exact)

grid = GridSpec(1, 40.0, 4096)
speeds = np.linspace(0.1, 1.3, 13)

branch = [dark_soliton(c, grid) for c in speeds]
print("speed   residual      P(numeric)     P(closed form)   dP/dc")
sweep = branch_momentum_sweep(branch)
for wave, s in zip(branch, sweep):
    exact = dark_soliton_momentum_exact(s.c)
    slope = "%8.4f" % s.dpdc if s.dpdc is not None else "       -"
    print("%5.2f   %.3e   %+.9f   %+.9f  %s"
          % (s.c, wave.residual_norm, s.momentum, exact, slope))

write_csv("dark_soliton_branch.csv",
          ["c", "P", "E", "dPdc", "newton_iters", "residual"],
          [[getattr(s, name) for s in sweep]
           for name in ("c", "momentum", "energy", "dpdc", "newton_iters",
                        "residual")])
print("\nall slopes positive:",
      all(s.dpdc > 0 for s in sweep if s.dpdc is not None))
print("wrote dark_soliton_branch.csv")
