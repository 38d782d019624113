"""Growth-rate verification for an unstable bubble, end to end.

On a wide line (the unstable mode decays on the slow scale rate/sound
speed), builds the invariant splitting around the stationary bubble:
growth/decay eigenmodes, the translation and speed-derivative
directions, and the positively-weighted center block.  Then checks the
splitting dynamically: backward decay of the unstable mode at its rate,
polynomially-bounded center-stable draws, and a nonlinear run whose
unstable projection grows at the linear rate until it leaves the linear
regime.
"""

import numpy as np

from nlstab.cli import write_csv
from nlstab.dynamics import (dichotomy_growth_test, evolve_nonlinear,
                             fit_log_slope)
from nlstab.grid import GridSpec, PairField, hydro_to_uv
from nlstab.nonlinearity import cq_constants
from nlstab.profiles import continue_branch, stationary_bubble
from nlstab.spectra import center_positivity_sample, dichotomy_basis

k = cq_constants(0.2, 1.0, 1.0)
grid = GridSpec(1, 200.0, 1024)
bubble = stationary_bubble(k, "line", grid)
branch = [continue_branch(bubble, [-0.01])[0], bubble,
          continue_branch(bubble, [0.01])[0]]
basis = dichotomy_basis(bubble, 0.0, branch, spec=k.spec)
print("unstable rate lambda_u = %.6f" % basis.rate)
print("cross pairing <op w_u, w_s> = %.3e" % basis.cross)
violations, values = center_positivity_sample(basis)
print("center-block positivity: %d violations in 50 draws (min %.3g)"
      % (violations, min(values)))

out = dichotomy_growth_test(basis, T=20.0, dt=5e-3, n_draws=10,
                            rng=np.random.default_rng(2))
print("\nbackward slope of the unstable mode: %.6f (target %.6f)"
      % (out["backward_slope"], -basis.rate))
print("center-stable draws, max exponential rate: %.2e" % out["cs_slope_max"])
print("center draws, uniform bound C = %.2f" % out["center_bound_max"])

print("\nnonlinear growth run (this is the long part)...")
eps = 1e-4
background = hydro_to_uv(bubble.profile)
u0 = PairField(grid, background.c1 + eps * basis.w_u.c1,
               background.c2 + eps * basis.w_u.c2, "uv")
horizon = np.log(2e3) / basis.rate
traj = evolve_nonlinear(u0, 0.0, k.spec, horizon, 0.02, corrections=2,
                        background=background, basis=basis, base_wave=bubble,
                        monitor_every=10, drift_guard=None,
                        momentum_kind="hydro")
times, proj = traj.series("proj_u")
proj = np.abs(proj)
window = (proj >= 10 * proj[0]) & (proj <= 1e-2)
slope = fit_log_slope(times[window], proj[window])
print("fitted growth of the unstable projection: %.6f (linear rate %.6f)"
      % (slope, basis.rate))
write_csv("unstable_run_monitors.csv", ["t"] + list(traj.monitors),
          [traj.monitor_times] + list(traj.monitors.values()))
print("wrote unstable_run_monitors.csv")
