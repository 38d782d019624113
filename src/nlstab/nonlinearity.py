"""Nonlinear laws F(s) for scalar NLS equations on a nonvanishing background.

Two families are supported:

* ``gp`` -- the defocusing law F(s) = 1 - s with background density 1;
* ``cubic-quintic`` -- F(s) = -a1 + a3*s - a5*s**2 with positive
  coefficients whose ratio a1*a5/a3**2 lies in (3/16, 1/4); the background
  density is the larger root rho0 of F.

Besides F, F' and the potential V(s) = int_s^{r0} F(t) dt (so V(r0) = 0),
the module derives the odd auxiliary nonlinearity g driving radial ground
states of the bubble equation -Lap(u) = g(u), its antiderivative G, the
density/amplitude thresholds of the cubic-quintic family, and the scalar
function h(ratio) whose root c0 marks the parameter where G(u1) = 0.
"""

import numpy as np

RATIO_LO = 3.0 / 16.0
RATIO_HI = 1.0 / 4.0
RATIO_PROVEN_HI = 21.0 / 100.0
_RATIO_XTOL = 1e-12                    # bisection tolerance of c0
_G4_BETAS = (0.25, 0.5, 1.0, 2.0, 4.0)   # the betas (G4) is checked at


class NonlinearitySpec:
    """A nonlinear law F with background density r0 (F(r0)=0, F'(r0)<0)."""

    def __init__(self, kind, params=None):
        self.kind = kind
        self.params = dict(params or {})
        if kind == "gp":
            self.r0 = 1.0
        elif kind == "cubic-quintic":
            a1, a3, a5 = (self.params[k] for k in ("alpha1", "alpha3", "alpha5"))
            self._a1, self._a3, self._a5 = a1, a3, a5
            if min(a1, a3, a5) <= 0.0:
                raise ValueError("cubic-quintic coefficients must be positive")
            ratio = a1 * a5 / a3 ** 2
            if not (RATIO_LO < ratio < RATIO_HI):
                raise ValueError(
                    "cubic-quintic ratio a1*a5/a3^2 = %g outside (3/16, 1/4)" % ratio)
            self.r0 = (a3 + np.sqrt(a3 ** 2 - 4.0 * a1 * a5)) / (2.0 * a5)
        else:
            raise ValueError("unknown nonlinearity kind %r" % kind)
        if abs(self.f(self.r0)) > 1e-12:
            raise ValueError("F(r0) = %g != 0" % self.f(self.r0))
        if self.fprime(self.r0) >= 0.0:
            raise ValueError("F'(r0) must be negative")

    @classmethod
    def gp(cls):
        return cls("gp")

    @classmethod
    def cubic_quintic(cls, alpha1, alpha3, alpha5):
        return cls("cubic-quintic",
                   {"alpha1": alpha1, "alpha3": alpha3, "alpha5": alpha5})

    # -- pointwise evaluation ------------------------------------------------

    def f(self, s):
        """F(s); plain arithmetic, so a float stays a float and an array
        gives the same bits elementwise."""
        if self.kind == "gp":
            return 1.0 - s
        return -self._a1 + self._a3 * s - self._a5 * (s * s)

    def fprime(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "gp":
            return -np.ones_like(s)
        return self._a3 - 2.0 * self._a5 * s

    def v(self, s):
        """Potential V(s) = int_s^{r0} F, in closed form."""
        s = np.asarray(s, dtype=float)
        if self.kind == "gp":
            return 0.5 * (1.0 - s) ** 2
        a1, a3, a5 = self._a1, self._a3, self._a5
        anti = lambda t: -a1 * t + a3 * t ** 2 / 2.0 - a5 * t ** 3 / 3.0
        return anti(self.r0) - anti(s)


# ---------------------------------------------------------------------------
# cubic-quintic constants and the bubble nonlinearity g

def _pow2(q):
    """q**2 rounded as the C library's pow rounds it, for a float and for
    each entry of an array.  That rounding is not always that of q*q (it
    differs in the last bit for about 1 in 1,200 draws); g squares this
    way along the shooting ODE, whose bubble seeds keep their bits."""
    return q ** 2 if isinstance(q, float) else np.float_power(q, 2.0)


class CqConstants:
    """Derived constants of a cubic-quintic law.

    rho0 > rho0_tilde > rho1 > rho1_tilde are the roots of F and of the
    quartic part of g'; u0 = sqrt(rho0) - sqrt(rho1) is the interior zero
    of g and u1 = sqrt(rho0) - sqrt(rho1_tilde) the interior critical
    point.  c_ratio is a1*a5/a3^2 and c0 the root of h in (3/16, 21/100).
    """

    def __init__(self, alpha1, alpha3, alpha5):
        self.spec = NonlinearitySpec.cubic_quintic(alpha1, alpha3, alpha5)
        self.alpha1, self.alpha3, self.alpha5 = alpha1, alpha3, alpha5
        self.c_ratio = alpha1 * alpha5 / alpha3 ** 2
        disc = np.sqrt(alpha3 ** 2 - 4.0 * alpha1 * alpha5)
        disc_t = np.sqrt(9.0 * alpha3 ** 2 - 20.0 * alpha1 * alpha5)
        self.rho0 = self.spec.r0
        self.rho1 = (alpha3 - disc) / (2.0 * alpha5)
        self.rho0_tilde = (3.0 * alpha3 + disc_t) / (10.0 * alpha5)
        self.rho1_tilde = (3.0 * alpha3 - disc_t) / (10.0 * alpha5)
        self.amp = float(np.sqrt(self.rho0))
        self.u0 = self.amp - np.sqrt(self.rho1)
        self.u1 = self.amp - np.sqrt(self.rho1_tilde)
        self.c0 = critical_ratio()

    @property
    def regime(self):
        """Whether the ratio lies where (G4) is proven (up to 21/100)."""
        return ("proven" if self.c_ratio <= RATIO_PROVEN_HI
                else "outside proven regime")

    # g and its first two derivatives; odd in s, clipped above sqrt(rho0)

    def g(self, s):
        """g(s) = -F(q^2) q sign(s), q = sqrt(rho0) - min(|s|, sqrt(rho0)).

        Arithmetic and comparisons only: the radial ODE evaluates a float
        per step at float cost, and an array gives the same bits.
        """
        q = self.amp - abs(s)
        q = q * (q > 0.0) + 0.0          # clipped at +0 past sqrt(rho0)
        sign = (s > 0.0) * 1.0 - (s < 0.0)
        return sign * (-self.spec.f(_pow2(q)) * q)

    def gprime(self, s):
        """g'(s) = F(q^2) + 2 q^2 F'(q^2), zero past sqrt(rho0).

        A float (the variational ODE's per-step value) is evaluated with
        float arithmetic; its q**2 and q**4 take the C library's pow, as
        the numpy scalar form did, so the seed keeps its bits.
        """
        a1, a3, a5 = self.alpha1, self.alpha3, self.alpha5
        if isinstance(s, float):
            t = abs(s)
            if t > self.amp:
                return 0.0
            q = self.amp - t
            return -(a1 - 3.0 * a3 * q ** 2 + 5.0 * a5 * q ** 4)
        s = np.asarray(s, dtype=float)
        t = np.abs(s)
        q = np.maximum(self.amp - t, 0.0)
        out = -(a1 - 3.0 * a3 * q ** 2 + 5.0 * a5 * q ** 4)
        return np.where(t > self.amp, 0.0, out)

    def gsecond(self, s):
        s = np.asarray(s, dtype=float)
        sign = np.sign(s)
        q = np.maximum(self.amp - np.abs(s), 0.0)
        return sign * (-6.0 * self.alpha3 * q + 20.0 * self.alpha5 * q ** 3)

    def big_g(self, s):
        """Antiderivative G(s) = int_0^s g, even in s, by closed form."""
        s = np.asarray(s, dtype=float)
        t = np.minimum(np.abs(s), self.amp)
        return -0.5 * self.spec.v((self.amp - t) ** 2)


def cq_constants(alpha1, alpha3, alpha5):
    return CqConstants(alpha1, alpha3, alpha5)


def ratio_margin(c):
    """Scaled value of G(u1) as a function of the ratio c = a1*a5/a3^2.

    Equals -2*G(u1)*alpha5^2/alpha3^3; positive below the critical ratio
    c0 and negative above it, with h(3/16) > 0 and h(21/100) < 0.
    """
    c = np.asarray(c, dtype=float)
    y = np.sqrt(9.0 - 20.0 * c)
    z = np.sqrt(1.0 - 4.0 * c)
    return ((3.0 - y) / 10.0 * (14.0 * c / 15.0 - 9.0 / 50.0)
            + 3.0 * c / 50.0 + (1.0 + z) ** 2 * (2.0 * z - 1.0) / 24.0)


def critical_ratio():
    """Root c0 of ratio_margin, bisected inside (3/16, 21/100)."""
    from scipy.optimize import bisect
    lo, hi = RATIO_LO, RATIO_PROVEN_HI
    if not (ratio_margin(lo) > 0.0 > ratio_margin(hi)):
        raise RuntimeError("sign bracket for the critical ratio failed")
    return float(bisect(ratio_margin, lo, hi, xtol=_RATIO_XTOL))


def _sign_changes(xs, ys, func):
    """Sign-change locations of sampled func, refined by bisection.

    Near-tangential sign pattern (value returning to the same sign within
    one sample of a zero crossing of the derivative) is reported separately
    rather than silently counted.
    """
    from scipy.optimize import brentq
    zeros, tangential = [], []
    for i in range(len(xs) - 1):
        a, b = ys[i], ys[i + 1]
        if a == 0.0:
            tangential.append(xs[i])
        elif a * b < 0.0:
            zeros.append(brentq(func, xs[i], xs[i + 1], xtol=1e-13))
    return zeros, tangential


def check_G_conditions(constants, samples=100_000):
    """Report on the sign structure (G1)-(G4) of g and G.

    (G1): g(0) = 0 with g'(0) < 0.  (G2): interior zero u0 with g < 0 below
    and g > 0 above.  (G3): g' changes sign only at u1, plus the value and
    sign of G(u1).  (G4): for each beta in ``_G4_BETAS``, the combination
    beta*(u*g'(u) - g(u)) - 2*g(u) changes sign exactly once on
    (u0, sqrt(rho0)).  Ratios above 21/100 are flagged as outside the
    regime where (G4) is guaranteed.
    """
    k = constants
    eps = 1e-9 * k.amp
    us = np.linspace(eps, k.amp - eps, 2001)
    lower = us[us < k.u0 - eps]
    upper = us[(us > k.u0 + eps) & (us < k.amp - eps)]
    mid = us[(us > k.u0 + eps) & (us < k.u1 - eps)]
    tail = us[(us > k.u1 + eps)]

    g1 = (abs(k.g(0.0)) < 1e-14) and (k.gprime(0.0) < 0.0)
    g2 = (abs(k.g(k.u0)) < 1e-10 and k.gprime(k.u0) > 0.0
          and np.all(k.g(lower) < 0.0) and np.all(k.g(upper) > 0.0))
    G_u1 = float(k.big_g(k.u1))
    g3 = (abs(k.gprime(k.u1)) < 1e-10
          and np.all(k.gprime(mid) > 0.0) and np.all(k.gprime(tail) < 0.0))

    span = np.linspace(k.u0 + eps, k.amp - eps, samples)
    g4_counts, g4_tangential = {}, {}
    for beta in _G4_BETAS:
        phi = lambda u, b=beta: b * (u * k.gprime(u) - k.g(u)) - 2.0 * k.g(u)
        zeros, tang = _sign_changes(span, phi(span), phi)
        g4_counts[beta] = len(zeros)
        g4_tangential[beta] = tang
    g4 = all(n == 1 for n in g4_counts.values())

    return {
        "G1": bool(g1),
        "G2": bool(g2),
        "G3": bool(g3),
        "G4": bool(g4),
        "G_at_u1": G_u1,
        "G_at_u1_sign": int(np.sign(G_u1)) if abs(G_u1) > 1e-14 else 0,
        "g4_sign_changes": g4_counts,
        "g4_tangential": g4_tangential,
        "ratio": k.c_ratio,
        "critical_ratio": k.c0,
        "regime": k.regime,
    }
