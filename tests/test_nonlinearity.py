import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlstab.nonlinearity import (NonlinearitySpec, check_G_conditions,
                                 cq_constants, critical_ratio, ratio_margin)

RHO0 = 0.7236067977499789   # (1 + sqrt(0.2)) / 2
RHO1 = 0.2763932022500211
RHO1_TILDE = 0.0763932022500210   # (3 - sqrt(5)) / 10
U1 = 0.5742576061020188


def test_gp_background_values():
    spec = NonlinearitySpec.gp()
    assert spec.f(1.0) == 0.0 and spec.fprime(1.0) == -1.0
    assert spec.v(1.0) == 0.0
    assert spec.f(0.0) == 1.0
    assert abs(spec.v(0.0) - 0.5) < 1e-15


def test_cq_background_root():
    spec = NonlinearitySpec.cubic_quintic(0.2, 1.0, 1.0)
    assert abs(spec.r0 - RHO0) < 1e-14
    assert abs(spec.f(spec.r0)) < 1e-12
    assert spec.fprime(spec.r0) < 0.0


def test_cq_ratio_validation():
    for make in (NonlinearitySpec.cubic_quintic, cq_constants):
        with pytest.raises(ValueError, match="outside"):
            make(0.3, 1.0, 1.0)   # ratio 0.3 > 1/4
        with pytest.raises(ValueError, match="outside"):
            make(0.1, 1.0, 1.0)   # ratio < 3/16
        with pytest.raises(ValueError, match="positive"):
            make(-0.2, 1.0, -1.0)   # ratio 0.2, two coefficients negative


def test_cq_constants_roots():
    k = cq_constants(0.2, 1.0, 1.0)
    assert abs(k.rho0 - RHO0) < 1e-14
    assert abs(k.rho1 - RHO1) < 1e-14
    assert abs(k.rho1_tilde - RHO1_TILDE) < 1e-14
    assert abs(k.u1 - U1) < 1e-13
    assert k.rho1_tilde < k.rho1 < k.rho0_tilde < k.rho0


def _probe_values(k, rng):
    special = [0.0, -0.0, k.amp, -k.amp, np.nextafter(k.amp, 2.0), 1.5,
               -2.0 * k.amp, k.u0, -k.u0, k.u1, -k.u1, 5e-324, -5e-324]
    return np.concatenate([special,
                           rng.uniform(-1.5 * k.amp, 1.5 * k.amp, 100_000)])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_float_path_is_the_array_path_bit_for_bit():
    # the radial ODE calls g on one float per step; g and F evaluate it by
    # the array formula, to the same bits and as a float
    k = cq_constants(0.2, 1.0, 1.0)
    s = _probe_values(k, np.random.default_rng(5))
    assert type(k.g(0.3)) is float
    assert np.array_equal(_bits([k.g(x) for x in s.tolist()]), _bits(k.g(s)))
    for spec in (k.spec, NonlinearitySpec.gp()):
        assert type(spec.f(0.3)) is float
        assert np.array_equal(_bits([spec.f(x) for x in s.tolist()]),
                              _bits(spec.f(s)))


def test_g_keeps_the_rounding_of_its_numpy_scalar_form():
    # -F(q**2) q sign(s) on numpy scalars squares q by the C library's pow,
    # which is not always the rounded q*q; the seeds and shoot.csv keep
    # their bits only if g squares the same way
    k = cq_constants(0.2, 1.0, 1.0)
    s = _probe_values(k, np.random.default_rng(6))[:20_000]

    def scalar_form(x):
        x = np.float64(x)
        q = k.amp - np.minimum(np.abs(x), k.amp)
        q2 = q ** 2
        f = -k.alpha1 + k.alpha3 * q2 - k.alpha5 * (q2 * q2)
        return np.sign(x) * (-f * q)
    assert np.array_equal(_bits([k.g(x) for x in s.tolist()]),
                          _bits([scalar_form(x) for x in s]))


def _numpy_gprime(k, s):
    # g' as it was computed for every input, floats wrapped in numpy
    s = np.asarray(s, dtype=float)
    t = np.abs(s)
    q = np.maximum(k.amp - t, 0.0)
    out = -(k.alpha1 - 3.0 * k.alpha3 * q ** 2 + 5.0 * k.alpha5 * q ** 4)
    return np.where(t > k.amp, 0.0, out)


CQ02 = cq_constants(0.2, 1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False))
def test_gprime_float_keeps_the_bits_of_its_numpy_form(s):
    value = CQ02.gprime(s)
    assert type(value) is float
    assert _bits(value) == _bits(float(_numpy_gprime(CQ02, np.float64(s))))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_gprime_array_keeps_its_bits(values):
    s = np.asarray(values, dtype=float)
    assert np.array_equal(_bits(CQ02.gprime(s)), _bits(_numpy_gprime(CQ02, s)))


def test_gprime_float_path_on_the_probe_values():
    # pow and q*q differ in about 1 of 1,200 squares: a dense sample sees it
    s = _probe_values(CQ02, np.random.default_rng(8))
    assert np.array_equal(_bits([CQ02.gprime(x) for x in s.tolist()]),
                          _bits([_numpy_gprime(CQ02, x) for x in s]))
    assert np.array_equal(_bits(CQ02.gprime(s)), _bits(_numpy_gprime(CQ02, s)))


def test_g_vanishes_at_thresholds():
    k = cq_constants(0.2, 1.0, 1.0)
    assert abs(k.g(0.0)) < 1e-14
    assert abs(k.g(k.u0)) < 1e-10
    assert abs(k.g(k.amp)) < 1e-14
    assert abs(k.gprime(k.u1)) < 1e-10


def test_ratio_margin_brackets_critical_value():
    assert ratio_margin(3.0 / 16.0) > 0.0
    assert ratio_margin(21.0 / 100.0) < 0.0
    c0 = critical_ratio()
    assert 3.0 / 16.0 < c0 < 21.0 / 100.0
    assert abs(ratio_margin(c0)) < 1e-11


def test_ratio_margin_matches_direct_G():
    # independent evaluation of G(u1) from the antiderivative of F
    for ratio in (0.19, 0.2, 0.205):
        k = cq_constants(ratio, 1.0, 1.0)
        anti = lambda t: -ratio * t + t ** 2 / 2.0 - t ** 3 / 3.0
        G_u1 = -0.5 * (anti(k.rho0) - anti(k.rho1_tilde))
        assert abs(ratio_margin(ratio) - (-2.0 * G_u1)) < 1e-13


def test_G_conditions_hold():
    k = cq_constants(0.2, 1.0, 1.0)
    rep = check_G_conditions(k, samples=20000)
    assert rep["G1"] and rep["G2"] and rep["G3"] and rep["G4"]
    assert rep["regime"] == "proven"
    assert rep["g4_sign_changes"][1.0] == 1


def test_G_vanishes_at_critical_ratio():
    c0 = critical_ratio()
    k = cq_constants(c0, 1.0, 1.0)
    rep = check_G_conditions(k, samples=2000)
    assert abs(rep["G_at_u1"]) <= 1e-8 * 1.0 ** 3 / 1.0 ** 2


def test_outside_proven_regime_flagged():
    k = cq_constants(0.22, 1.0, 1.0)
    rep = check_G_conditions(k, samples=2000)
    assert rep["regime"] == "outside proven regime"


def test_g_sign_structure_samples():
    k = cq_constants(0.2, 1.0, 1.0)
    lower = np.linspace(1e-6, k.u0 - 1e-6, 200)
    upper = np.linspace(k.u0 + 1e-6, k.amp - 1e-6, 200)
    assert np.all(k.g(lower) < 0.0)
    assert np.all(k.g(upper) > 0.0)
    mid = np.linspace(k.u0 + 1e-6, k.u1 - 1e-6, 200)
    tail = np.linspace(k.u1 + 1e-6, k.amp - 1e-6, 200)
    assert np.all(k.gprime(mid) > 0.0)
    assert np.all(k.gprime(tail) < 0.0)


def test_G_monotonicity():
    k = cq_constants(0.2, 1.0, 1.0)
    s = np.linspace(1e-6, k.u0 - 1e-6, 300)
    assert np.all(np.diff(k.big_g(s)) < 0.0)
    s = np.linspace(k.u0 + 1e-6, k.amp - 1e-6, 300)
    assert np.all(np.diff(k.big_g(s)) > 0.0)


def test_big_g_matches_quadrature():
    k = cq_constants(0.2, 1.0, 1.0)
    for s in (0.2, k.u0, 0.5, k.u1, k.amp):
        val, _ = quad(lambda t: float(k.g(t)), 0.0, s, limit=200)
        assert abs(val - float(k.big_g(s))) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.19, max_value=0.2499))
def test_background_consistency_property(ratio):
    spec = NonlinearitySpec.cubic_quintic(ratio, 1.0, 1.0)
    assert abs(spec.f(spec.r0)) < 1e-12
    assert abs(spec.v(spec.r0)) < 1e-12
    assert spec.fprime(spec.r0) < 0.0
