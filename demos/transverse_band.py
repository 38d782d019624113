"""Transverse instability band of the 1D dark soliton.

A planar wave that is stable against longitudinal perturbations can
still be unstable against bending: adding a transverse wave number k
shifts the second variation by k^2, and growth persists exactly while
the shifted operator keeps a negative direction.  The band here is
(0, sqrt(1/2)); growth rates rise from zero, peak mid-band, and vanish
at the endpoints.
"""

import numpy as np

from nlstab.cli import write_csv
from nlstab.grid import GridSpec
from nlstab.profiles import dark_soliton
from nlstab.spectra import transversal_band

wave = dark_soliton(0.0, GridSpec(1, 40.0, 2048))
coarse = dark_soliton(0.0, GridSpec(1, 40.0, 512))

out = transversal_band(wave, 0.0, n_samples=7, ham_base=coarse,
                       k_outside=[0.8, 0.9])
k_lo, k_hi = out["band"]
print("band: (%.6f, %.6f)   expected (0, %.6f)" % (k_lo, k_hi, np.sqrt(0.5)))
print("admissible single-mode interval: (%.4f, %.4f)" % out["admissible"])
print("\n   k     inside   growth     n_neg")
for s in out["samples"]:
    print("%6.3f   %-6s  %8.5f   %d"
          % (s["k"], s["inside"], s["growth_rate"], s["n_negative"]))

write_csv("transverse_band.csv", ["k", "lambda_u", "n_neg"],
          [[s[key] for s in out["samples"]]
           for key in ("k", "growth_rate", "n_negative")])
print("\nwrote transverse_band.csv")
