"""Stationary bubbles of a cubic-quintic law and their non-degeneracy.

Derives the density thresholds of the law F(s) = -0.2 + s - s^2, checks
the sign conditions on the auxiliary nonlinearity g and its integral,
shoots for the planar radial ground state, and runs the variational-
solution diagnostics behind the non-degeneracy verdict.
"""

import numpy as np

from nlstab import shooting
from nlstab.cli import write_csv
from nlstab.grid import GridSpec
from nlstab.nonlinearity import check_G_conditions, cq_constants
from nlstab.profiles import bubble_amplitude_monotone, stationary_bubble

k = cq_constants(0.2, 1.0, 1.0)
print("density roots: rho0=%.6f rho1=%.6f rho~0=%.6f rho~1=%.6f"
      % (k.rho0, k.rho1, k.rho0_tilde, k.rho1_tilde))
print("amplitude thresholds: u0=%.6f u1=%.6f" % (k.u0, k.u1))
print("ratio=%.4f, critical ratio c0=%.6f" % (k.c_ratio, k.c0))

report = check_G_conditions(k)
print("\nsign conditions:", {key: report[key] for key in
                             ("G1", "G2", "G3", "G4")})
print("G(u1) = %.3e (%s regime)" % (report["G_at_u1"], report["regime"]))

print("\nshooting for the radial ground state (two dimensions)...")
res = shooting.find_alpha0(k, 2)
print("alpha0 = %.12f" % res.alpha0)
diag = shooting.phi_diagnostics(res, k)
print("variational solution: %d sign change(s), terminal value %.2e"
      % (diag["zero_count"], diag["phi_limit"]))
print("theta(r) increasing below the g-threshold radius:",
      diag["theta_increasing"])
print("verdict:", diag["verdict"])
write_csv("ground_state.csv", ["r", "u", "uprime", "phi"],
          [res.r, res.u, res.uprime, res.phi])

print("\nrevolving onto a Cartesian grid and polishing...")
bubble = stationary_bubble(k, "radial-2D", GridSpec(2, 30.0, 128))
print("residual: %.2e   monotone amplitude: %s   min density: %.2e"
      % (bubble.residual_norm, bubble_amplitude_monotone(bubble),
         bubble.profile.c1.min()))
