"""Far-field coercivity constants and the hydrodynamic conjugacy.

The far-field quadratic form at speed c admits the uniform lower bound
min(2 - c^2/a^2, 1 - a^2); the best split solves a^4 + a^2 = c^2 and at
c = 1 gives the golden-ratio value.  Random band-limited fields verify
the bound with zero violations, and pointwise change of variables to
density/phase exhibits the quadratic-form conjugacy between the two
second variations.
"""

import numpy as np

from nlstab.grid import GridSpec, PairField, uv_to_hydro
from nlstab.nonlinearity import NonlinearitySpec
from nlstab.operators import (assemble, coercivity_constant, quadratic_form,
                              random_smooth_pair, tc_map)
from nlstab.profiles import TravelingWave, dark_soliton

spec = NonlinearitySpec.gp()
out = coercivity_constant(1.0)
print("speed 1: best split a*^2 = %.12f (golden ratio conjugate)"
      % out["a_opt_sq"])
print("coercivity constant delta* = %.12f" % out["delta_star"])

grid = GridSpec(1, 40.0, 512)
check = coercivity_constant(1.0, grid=grid, spec=spec,
                            rng=np.random.default_rng(0))
print("random-field violations of the form bound: %d / %d"
      % (check["violations"], check["n_fields"]))

rng = np.random.default_rng(1)
print("\nconjugacy of the two second variations at a moving soliton:")
g2 = GridSpec(1, 40.0, 1024)
wave = dark_soliton(1.0, g2)
hyd = TravelingWave(1.0, uv_to_hydro(wave.profile), spec, wave.residual_norm)
op_m = assemble("Mc", base=hyd, c=1.0, spec=spec)
op_l = assemble("Lc", base=wave, c=1.0, spec=spec)
x = g2.axis(0)
window = np.exp(-(x / 30.0) ** 8)
worst = 0.0
for _ in range(20):
    f = random_smooth_pair(g2, rng)
    f = PairField(g2, f.c1 * window, f.c2 * window, "uv")
    qm = quadratic_form(op_m, f)
    ql = 2.0 * quadratic_form(op_l, tc_map(f, hyd))
    worst = max(worst, abs(qm - ql) / max(abs(qm), abs(ql)))
print("worst relative mismatch over 20 random smooth fields: %.2e" % worst)
