import numpy as np
import pytest
from scipy.integrate import quad

from nlstab.functionals import d1_distance, energy, momentum
from nlstab.grid import GridSpec, PairField, uv_to_hydro
from nlstab.nonlinearity import NonlinearitySpec
from nlstab.profiles import dark_soliton, dark_soliton_momentum_exact

ONE_MINUS_HALF_PI = 1.0 - np.pi / 2.0   # renormalized momentum at c = 1


def _background(grid):
    return PairField(grid, np.ones(grid.shape), np.zeros(grid.shape), "uv")


def test_trivial_background(gp_spec):
    g = GridSpec(1, 40.0, 256)
    u = _background(g)
    assert abs(energy(u, gp_spec)) < 1e-14
    assert abs(momentum(u, "classical")) < 1e-14
    assert abs(momentum(u, "renormalized1D")) < 1e-14


def test_energy_oracle_dark_soliton(gp_spec):
    g = GridSpec(1, 40.0, 32768)
    wave = dark_soliton(0.0, g)
    up = lambda x: np.cosh(x / np.sqrt(2.0)) ** -2 / np.sqrt(2.0)
    dens = lambda x: 0.5 * up(x) ** 2 + 0.25 * (1 - np.tanh(x / np.sqrt(2.0)) ** 2) ** 2
    exact, _ = quad(dens, -40.0, 40.0, limit=400)
    num = energy(wave.profile, gp_spec)
    assert abs(num - exact) / exact < 1e-6


def test_energy_representation_agreement(gp_spec):
    g = GridSpec(1, 40.0, 4096)
    wave = dark_soliton(0.8, g)   # vortex-free
    e_uv = energy(wave.profile, gp_spec)
    e_hyd = energy(uv_to_hydro(wave.profile), gp_spec)
    assert abs(e_uv - e_hyd) / e_uv < 1e-8


def test_edge_padding_leaves_energy_and_momentum(gp_spec):
    # |u| = 1 with a nonzero slope at both edges; padding the field with
    # its own edge values adds only nodes of zero density and zero slope,
    # so both sums keep every term and stay bitwise equal
    small = GridSpec(1, 10.0, 64)
    theta = 0.8 * np.sin(0.3 * small.axis(0)) + 0.1 * small.axis(0)
    big = GridSpec(1, 20.0, 128)
    padded = np.pad(theta, 32, mode="edge")
    fields = [PairField(g, np.cos(th), np.sin(th), "uv")
              for g, th in ((small, theta), (big, padded))]
    for value in (lambda u: energy(u, gp_spec),
                  lambda u: momentum(u, "classical")):
        assert value(fields[1]) == value(fields[0])


def test_renormalized_momentum_c1():
    g = GridSpec(1, 40.0, 8192)
    wave = dark_soliton(1.0, g)
    p = momentum(wave.profile, "renormalized1D")
    assert abs(p - ONE_MINUS_HALF_PI) < 1e-4
    assert abs(dark_soliton_momentum_exact(1.0) - ONE_MINUS_HALF_PI) < 1e-15


def test_renormalized_needs_nonvanishing(gp_spec):
    g = GridSpec(1, 40.0, 512)
    wave = dark_soliton(0.0, g)   # vanishes at the origin
    with pytest.raises(ValueError):
        momentum(wave.profile, "renormalized1D")


def test_hydro_matches_classical_vortex_free():
    g = GridSpec(1, 40.0, 2048)
    x = g.axis(0)
    u = PairField(g, 1.0 + 0.2 * np.exp(-x ** 2 / 8.0),
                  0.1 * np.exp(-x ** 2 / 10.0) * x / 5.0, "uv")
    p_cl = momentum(u, "classical")
    p_h = momentum(uv_to_hydro(u), "hydro")
    assert abs(p_cl - p_h) < 5.0 * g.h[0] ** 2


def test_d1_axioms(gp_spec):
    g = GridSpec(1, 40.0, 512)
    wave = dark_soliton(0.5, g)
    u = wave.profile
    bg = _background(g)
    assert d1_distance(u, u) == 0.0
    assert abs(d1_distance(u, bg) - d1_distance(bg, u)) < 1e-15
    assert d1_distance(u, bg) > 0.0


def test_d1_oracle_dark_soliton():
    g = GridSpec(1, 40.0, 16384)
    wave = dark_soliton(0.0, g)
    bg = _background(g)
    num = d1_distance(bg, wave.profile)
    b = 1.0 / np.sqrt(2.0)
    grad2, _ = quad(lambda x: (b * np.cosh(b * x) ** -2) ** 2, -40, 40)
    # |v|^2 + 2 Re v = |u|^2 - 1 = -sech(b x)^2 for the stationary profile
    mod2, _ = quad(lambda x: np.cosh(b * x) ** -4, -40, 40)
    exact = np.sqrt(grad2) + np.sqrt(mod2)
    assert abs(num - exact) / exact < 1e-6
