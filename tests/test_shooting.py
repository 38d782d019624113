import copy
import json

import numpy as np
import pytest

from nlstab import shooting
from nlstab.grid import GridSpec
from nlstab.nonlinearity import cq_constants
from nlstab.profiles import stationary_bubble


class FreeLaw:
    """Test hook: no forcing at all."""
    amp = np.inf

    def g(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def gprime(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def gsecond(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))


@pytest.fixture(scope="module")
def ground(cq02):
    return shooting.find_alpha0(cq02, 2)


def test_free_particle_is_constant():
    label, r, u, up, phi, phip = shooting.integrate_samples(
        0.5, FreeLaw(), 2, r_max=10.0, events=False)
    assert label == shooting.GROUND
    assert np.abs(u - 0.5).max() < 1e-12
    assert np.abs(phi - 1.0).max() < 1e-12


def test_near_rest_amplitude_crosses(cq02):
    label = shooting.classify(cq02.amp * (1 - 1e-5), cq02, 2)
    assert label == shooting.CROSSING


def test_lower_bracket_endpoint_undershoots(cq02):
    label = shooting.classify(cq02.u1 + 1e-9, cq02, 2)
    assert label == shooting.UNDERSHOOT


def test_ground_state_profile(ground, cq02):
    assert cq02.u1 < ground.alpha0 < cq02.amp
    assert np.all(ground.u > 0.0)
    core = ground.r < ground.tail_start
    assert np.all(np.diff(ground.u[core]) < 1e-12)
    assert abs(ground.u[-1]) <= 1e-6


def test_bisection_witness(ground, cq02):
    up = shooting.classify(ground.alpha0 + 1e-8, cq02, 2)
    dn = shooting.classify(ground.alpha0 - 1e-8, cq02, 2)
    assert {up, dn} == {shooting.CROSSING, shooting.UNDERSHOOT}


def test_bracket_mismatch_raises(cq02):
    with pytest.raises(ValueError):
        shooting.find_alpha0(cq02, 2, bracket=(cq02.u1 + 1e-9,
                                               cq02.u1 + 2e-9))


def test_first_integral_planar(cq02):
    _, r, u, up, _, _ = shooting.integrate_samples(0.55, cq02, 1, r_max=20.0)
    e = 0.5 * up ** 2 + cq02.big_g(u)
    assert np.abs(e - e[0]).max() <= 1e-8


def test_variational_solution_matches_finite_difference(ground, cq02):
    d = 1e-6
    _, _, u_hi, *_ = shooting.integrate_samples(ground.alpha0 + d, cq02, 2,
                                                r_max=15.0, events=False)
    _, _, u_lo, *_ = shooting.integrate_samples(ground.alpha0 - d, cq02, 2,
                                                r_max=15.0, events=False)
    _, _, _, _, phi, _ = shooting.integrate_samples(ground.alpha0, cq02, 2,
                                                    r_max=15.0, events=False)
    fd = (u_hi - u_lo) / (2 * d)
    rel = np.abs(fd - phi) / np.maximum(np.abs(phi), 1e-12)
    assert rel.max() <= 1e-4


def test_phi_diagnostics(ground, cq02):
    diag = shooting.phi_diagnostics(ground, cq02)
    assert diag["zero_count"] == 1
    assert diag["theta_increasing"] is True
    assert abs(diag["phi_limit"]) >= 100.0 * ground.tol
    assert diag["verdict"] == "non-degenerate"
    assert diag["regime"] == "proven"
    # the first sign change of phi sits beyond the g-threshold radius for
    # the actual (non-decaying) variational solution; both radii reported
    assert diag["z1"] is not None and diag["r0_cross"] is not None


def test_bubble_reconstruction_matches_shooting(ground, cq02):
    g = GridSpec(2, 20.0, 128)
    wave = stationary_bubble(cq02, "radial-2D", g, polish=False)
    from scipy.interpolate import CubicSpline
    interp = CubicSpline(ground.r, ground.u)
    xx, yy = g.meshes()
    r = np.clip(np.sqrt(xx ** 2 + yy ** 2), ground.r[0], ground.r[-1])
    phi_ref = cq02.amp - np.clip(interp(r), 0.0, ground.alpha0)
    assert np.abs(np.sqrt(wave.profile.c1) - phi_ref).max() <= 1e-10


def test_serialization(tmp_path, ground, cq02):
    csv = tmp_path / "shoot.csv"
    ground.to_csv(csv)
    header = csv.read_text().splitlines()[0]
    assert header == "r,u,uprime,phi"
    diag = shooting.phi_diagnostics(ground, cq02)
    text = shooting.verdict_json(diag)
    assert json.loads(text)["verdict"] == "non-degenerate"


def test_phi_diagnostics_sign_change_at_last_sample(ground, cq02):
    # +1e-13 next to about -1.7e14: the spline through the samples loses
    # the sign of the last one to rounding, the zero count must not
    assert ground.phi[-2] < -1e13
    flipped = copy.copy(ground)
    flipped.phi = ground.phi.copy()
    flipped.phi[-1] = 1e-13
    diag = shooting.phi_diagnostics(flipped, cq02)
    assert diag["zero_count"] == 2
    assert ground.r[-2] <= flipped.zeros[1] <= ground.r[-1]
