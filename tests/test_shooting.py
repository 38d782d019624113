import copy
import json

import numpy as np
import pytest

from nlstab import shooting
from nlstab.grid import GridSpec
from nlstab.nonlinearity import cq_constants
from nlstab.profiles import _SEED_XTOL, stationary_bubble


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


def test_classify_agrees_with_the_events_of_integrate(ground, cq02):
    # classify integrates (u, u') alone; integrate carries phi along
    lo, hi = cq02.u1 + 1e-9, cq02.amp * (1.0 - 1e-7)   # default bracket
    alphas = list(np.linspace(lo, hi, 9)) + [ground.alpha0 - 1e-8,
                                             ground.alpha0 + 1e-8]
    labels = []
    for alpha in alphas:
        label, _ = shooting.integrate(alpha, cq02, 2)
        labels.append(shooting.UNDERSHOOT if label == shooting.GROUND
                      else label)
        assert shooting.classify(alpha, cq02, 2) == labels[-1], alpha
    assert set(labels) == {shooting.CROSSING, shooting.UNDERSHOOT}


@pytest.mark.parametrize("ndim, xtol", [(1, 1e-12), (2, 1e-12), (3, 1e-12),
                                        (2, _SEED_XTOL)])
def test_labels_are_those_of_the_capped_variational_run(ground, cq02, ndim,
                                                        xtol):
    # classify steps (u, u') without the step cap of the dense run with
    # phi; every label a bisection took must be the one that run gives
    res = (ground if (ndim, xtol) == (2, 1e-12)
           else shooting.find_alpha0(cq02, ndim, xtol=xtol))
    for alpha, label in res.bracket_history:
        full, _ = shooting.integrate(alpha, cq02, ndim)
        assert label == (shooting.UNDERSHOOT if full == shooting.GROUND
                         else full), alpha


def test_phi_tail_is_solved_on_first_read(cq02, monkeypatch):
    # the bubble seed reads u alone: phi across the grafted tail costs
    # one more integration, run when phi is first read
    calls = []
    integrate = shooting.solve_ivp
    monkeypatch.setattr(shooting, "solve_ivp",
                        lambda *args, **kw: calls.append(1)
                        or integrate(*args, **kw))
    res = shooting.find_alpha0(cq02, 2, xtol=_SEED_XTOL)
    labels = len(res.bracket_history)
    assert len(calls) == labels + 1
    assert res.phi.shape == res.r.shape
    assert res.phi is res.phi and len(calls) == labels + 2


def test_amplitude_at_reads_tail_radii_alone(cq02):
    # radii all beyond the graft radius skip the core's dense output and
    # read the grafted tail as they do beside a core radius
    res = shooting.find_alpha0(cq02, 1)
    assert 5.0 <= res.tail_start < 50.0
    tail = res.amplitude_at(np.array([5.0, 50.0]))[1]
    assert np.array_equal(res.amplitude_at(np.array([50.0])), [tail])
    assert res.amplitude_at(50.0) == tail


def test_ground_amplitude_is_pinned(ground):
    assert abs(ground.alpha0 - 0.8484081744540632) <= 2e-12


def test_bracket_mismatch_raises(cq02):
    with pytest.raises(ValueError):
        shooting.find_alpha0(cq02, 2, bracket=(cq02.u1 + 1e-9,
                                               cq02.u1 + 2e-9))


def test_2d_ground_state_below_u1_is_found(cq02):
    # near the critical ratio u1 already crosses in 2D, so the default
    # bracket drops to (u0, u1); the law (0.2, 1, 1) still opens at u1
    k = cq_constants(0.24, 1.0, 1.0)
    assert shooting.classify(k.u1 + 1e-9, k, 2) == shooting.CROSSING
    res = shooting.find_alpha0(k, 2, xtol=1e-6)
    assert k.u0 < res.alpha0 < k.u1
    assert abs(res.alpha0 - 0.3651279) <= 1e-6
    assert res.bracket_history[:2] == [(k.u0 + 1e-9, shooting.UNDERSHOOT),
                                       (k.u1 + 1e-9, shooting.CROSSING)]
    start = shooting.find_alpha0(cq02, 2, xtol=0.1).bracket_history[0]
    assert start == (cq02.u1 + 1e-9, shooting.UNDERSHOOT)


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
    assert abs(diag["phi_limit"]) >= 100.0 * shooting._TOL
    assert diag["verdict"] == "non-degenerate"
    assert diag["regime"] == "proven"
    # the first sign change of phi sits beyond the g-threshold radius for
    # the actual (non-decaying) variational solution; both radii reported
    assert diag["z1"] is not None and diag["r0_cross"] is not None


def test_bubble_reconstruction_matches_shooting(cq02):
    # the unpolished seed revolves the shooting it comes from; u' jumps
    # where the tail is grafted on (r = 27.1, inside this grid), so each
    # side of that joint gets its own spline through the samples
    seed = shooting.find_alpha0(cq02, 2, xtol=_SEED_XTOL)
    g = GridSpec(2, 20.0, 128)
    wave = stationary_bubble(cq02, "radial-2D", g, polish=False)
    from scipy.interpolate import CubicSpline
    core = seed.r <= seed.tail_start
    tail = seed.r >= seed.tail_start
    xx, yy = g.meshes()
    r = np.clip(np.sqrt(xx ** 2 + yy ** 2), seed.r[0], seed.r[-1])
    u = np.where(r <= seed.tail_start,
                 CubicSpline(seed.r[core], seed.u[core])(r),
                 CubicSpline(seed.r[tail], seed.u[tail])(r))
    phi_ref = cq02.amp - np.clip(u, 0.0, seed.alpha0)
    assert np.abs(np.sqrt(wave.profile.c1) - phi_ref).max() <= 1e-10


def test_find_alpha0_ends_for_any_xtol(cq02):
    for xtol in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="xtol must be positive"):
            shooting.find_alpha0(cq02, 1, xtol=xtol)
    # an xtol below the float spacing at alpha0 cannot be reached: the
    # bisection ends once the midpoint equals an end of the bracket
    res = shooting.find_alpha0(cq02, 1, xtol=1e-17)
    bisections = len(res.bracket_history) - 2
    assert bisections <= 64
    assert abs(res.alpha0 - res.bracket_history[-1][0]) <= np.spacing(
        res.alpha0)


def test_serialization(ground, cq02):
    diag = shooting.phi_diagnostics(ground, cq02)
    text = json.dumps(diag, sort_keys=True, default=float)
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
