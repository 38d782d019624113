import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from nlstab import dynamics
from nlstab.dynamics import (NonlinearStepper, Trajectory,
                             dichotomy_growth_test, evolve_linear,
                             evolve_nonlinear, fit_log_slope,
                             monitor_invariants)
from nlstab.grid import GridSpec, PairField, norm
from nlstab.operators import (AssembledOperator, assemble, j_matrix,
                              random_smooth_pair)
from nlstab.profiles import dark_soliton, polish_field_wave, translation_mode
from nlstab.spectra import sym_spectrum, unstable_mode


@pytest.fixture(scope="module")
def polished_soliton(gp_spec):
    return polish_field_wave(dark_soliton(0.8, GridSpec(1, 40.0, 512)))


def _deviation(a, b):
    return norm(PairField(a.grid, a.c1 - b.c1, a.c2 - b.c2, "uv"))


def test_cross_form_is_conserved(polished_soliton, gp_spec, rng):
    op = assemble("Lc", base=polished_soliton, c=0.8, spec=gp_spec)
    u0 = random_smooth_pair(op.grid, rng)
    v0 = random_smooth_pair(op.grid, rng)
    traj, other = evolve_linear(op, [u0, v0], 2.0, 1e-3)
    out = monitor_invariants(traj, op, other)
    assert out["crossform_drift"] <= 1e-6


def test_block_matches_single_runs(polished_soliton, gp_spec, rng):
    # one factorization for a block of right-hand sides changes no bit
    op = assemble("Lc", base=polished_soliton, c=0.8, spec=gp_spec)
    fields = [random_smooth_pair(op.grid, rng) for _ in range(3)]
    block = evolve_linear(op, fields, 0.3, 1e-3, monitor_every=7)
    for field, traj in zip(fields, block):
        single = evolve_linear(op, field, 0.3, 1e-3, monitor_every=7)
        assert traj.times == single.times
        assert traj.monitor_times == single.monitor_times
        assert traj.monitors["norm"] == single.monitors["norm"]
        for a, b in zip(traj.snapshots, single.snapshots):
            assert np.array_equal(a.ravel(), b.ravel())


def test_kernel_mode_is_stationary(polished_soliton, gp_spec):
    op = assemble("Lc", base=polished_soliton, c=0.8, spec=gp_spec)
    rep = sym_spectrum(op)
    assert rep.kernel_dim == 1
    mode = PairField.from_vector(op.grid, rep.kernel_vectors[0], "uv")
    traj = evolve_linear(op, mode, 5.0, 1e-3, monitor_every=500)
    assert _deviation(traj.snapshots[-1], mode) <= 1e-8


def test_unstable_mode_grows_at_its_rate(gp_spec):
    # transverse-shifted operator has a fast real pair: a crisp rate probe
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 512))
    op = assemble("LcPlusK2", base=wave, c=0.0, spec=gp_spec, k=0.35)
    rate, _, _, (w_u, _) = unstable_mode(op)
    mode = PairField.from_vector(wave.grid, w_u, "uv")
    horizon = 3.0 / rate
    traj = evolve_linear(op, mode, horizon, 1e-3, monitor_every=50)
    times, norms = traj.series("norm")
    growth = norms[-1] / norms[0]
    assert abs(growth - np.exp(rate * times[-1])) <= 0.01 * np.exp(rate * times[-1])


def test_speed_derivative_drifts_linearly(gp_spec):
    g = GridSpec(1, 40.0, 512)
    c, dc = 0.8, 1e-3
    wave = polish_field_wave(dark_soliton(c, g))
    hi, lo = dark_soliton(c + dc, g), dark_soliton(c - dc, g)
    c_mode = PairField(g, (hi.profile.c1 - lo.profile.c1) / (2 * dc),
                       (hi.profile.c2 - lo.profile.c2) / (2 * dc), "uv")
    from nlstab.operators import ghost_jacobian
    op = assemble("Lc", base=wave, c=c, spec=gp_spec)
    gop = AssembledOperator("Lc", ghost_jacobian(op), g, c=c, base=wave)
    traj = evolve_linear(gop, c_mode, 4.0, 2e-3, monitor_every=100)
    t_mode = translation_mode(wave.profile)
    speed = []
    for snap, t in zip(traj.snapshots, traj.times):
        speed.append((t, _deviation(snap, c_mode)))
    ts = np.array([s[0] for s in speed[5:]])
    ds = np.array([s[1] for s in speed[5:]])
    slope = np.polyfit(ts, ds, 1)[0]
    assert abs(slope - norm(t_mode)) <= 0.02 * norm(t_mode)


def test_nonlinear_scheme_reduces_to_linear(polished_soliton, gp_spec, rng):
    g = polished_soliton.grid
    c = 0.8
    eps = 1e-3
    noise = random_smooth_pair(g, rng)
    u0 = PairField(g, polished_soliton.profile.c1 + eps * noise.c1,
                   polished_soliton.profile.c2 + eps * noise.c2, "uv")
    traj = evolve_nonlinear(u0, c, gp_spec, 0.5, 1e-3,
                            background=polished_soliton.profile,
                            include_nonlinearity=False, drift_guard=None)
    # frozen-background generator: J times the symmetric factor below
    pot = gp_spec.f(polished_soliton.profile.c1 ** 2
                    + polished_soliton.profile.c2 ** 2)
    lap = g.div_coeff_grad(np.ones(g.shape), "zero")
    block = lap - sp.diags(pot.ravel())
    d1 = g.central(0, "zero")
    sym = sp.bmat([[block, -c * d1], [c * d1, block]], format="csr")
    op = AssembledOperator("Lc", sym, g, c=c)
    dev0 = PairField(g, eps * noise.c1, eps * noise.c2, "uv")
    lin = evolve_linear(op, dev0, 0.5, 1e-3, monitor_every=500)
    final_nl = PairField(g,
                         traj.snapshots[-1].c1 - polished_soliton.profile.c1,
                         traj.snapshots[-1].c2 - polished_soliton.profile.c2,
                         "uv")
    assert _deviation(final_nl, lin.snapshots[-1]) <= 1e-10


def test_time_reversal(polished_soliton, gp_spec, rng):
    g = polished_soliton.grid
    noise = random_smooth_pair(g, rng)
    u0 = PairField(g, polished_soliton.profile.c1 + 1e-3 * noise.c1,
                   polished_soliton.profile.c2 + 1e-3 * noise.c2, "uv")
    fwd = evolve_nonlinear(u0, 0.8, gp_spec, 1.0, 1e-3, corrections=6,
                           background=polished_soliton.profile,
                           drift_guard=None)
    back = evolve_nonlinear(fwd.snapshots[-1], 0.8, gp_spec, 1.0, -1e-3,
                            corrections=6,
                            background=polished_soliton.profile,
                            drift_guard=None)
    rel = _deviation(back.snapshots[-1], u0) / norm(u0)
    assert rel <= 1e-6


def test_soliton_fixed_point(polished_soliton, gp_spec):
    traj = evolve_nonlinear(polished_soliton.profile, 0.8, gp_spec, 2.0, 1e-3)
    assert _deviation(traj.snapshots[-1], polished_soliton.profile) <= 1e-6
    drift = monitor_invariants(traj)
    assert drift["E_drift"] <= 1e-6
    assert drift["P_drift"] <= 1e-6


def test_dt_halving_records_each_time_once(gp_spec):
    g = GridSpec(1, 40.0, 256)
    wave = dark_soliton(0.8, g, gp_spec)
    noise = random_smooth_pair(g, np.random.default_rng(0))
    u0 = PairField(g, wave.profile.c1 + 1e-2 * noise.c1,
                   wave.profile.c2 + 1e-2 * noise.c2, "uv")
    traj = evolve_nonlinear(u0, 0.8, gp_spec, 0.05, 1e-2, monitor_every=1,
                            drift_guard=1e-6)
    assert len(traj.times) > 6          # the guard halved dt
    assert np.all(np.diff(traj.monitor_times) > 0)
    assert np.all(np.diff(traj.times) > 0)
    assert abs(traj.monitor_times[-1] - 0.05) <= 1e-12


def test_fit_log_slope():
    t = np.linspace(0.0, 5.0, 200)
    vals = 3.0 * np.exp(0.37 * t)
    assert abs(fit_log_slope(t, vals) - 0.37) < 1e-12
    with pytest.raises(ValueError):
        fit_log_slope(t[:2], vals[:2])


def test_nonlinear_remainder_on_periodic_grid(gp_spec):
    # the remainder must be the wrapped frame equation minus the wrapped
    # implicit part, also where the background is not constant at the seam
    g = GridSpec(1, 40.0, 256, "periodic")
    x, h, c = g.axis(0), g.h[0], 0.3
    bg = np.exp(1j * np.pi * x / 40.0)
    phi = 1e-3 * np.exp(-(x - 39.0) ** 2)

    def d1(f):
        return (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)

    def lap(f):
        return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / h ** 2

    u = bg + phi
    full = c * d1(u) + 1j * (lap(u) + gp_spec.f(np.abs(u) ** 2) * u)
    implicit = c * d1(phi) + 1j * (lap(phi) + gp_spec.f(np.abs(bg) ** 2) * phi)
    ref = full - implicit
    stepper = NonlinearStepper(bg, c, gp_spec, g, 1e-3)
    err = np.abs(stepper.remainder(phi) - ref).max()
    assert err <= 1e-8 * np.abs(ref).max()


def _split_runs(monkeypatch, run):
    """``run()`` on 1 and on 3 cores, with the most column chunks it used."""
    out = []
    for n in (1, 3):
        chunks = []

        class Spy(ThreadPoolExecutor):
            def __init__(self, workers):
                chunks.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(dynamics, "_cores", lambda n=n: n)
        monkeypatch.setattr(dynamics, "ThreadPoolExecutor", Spy)
        out.append((run(), max(chunks)))
    return out


def _stripe_2d(gp_spec):
    # 64^2 pair operator: the dark soliton of speed 0.5 extruded along y
    g = GridSpec(2, 20.0, 64)
    x = g.axis(0)[:, None] + np.zeros(g.shape)
    prof = PairField(g, np.sqrt(1.0 - 0.125) * np.tanh(np.sqrt(1.75) / 2 * x),
                     np.full(g.shape, 0.5 / np.sqrt(2.0)), "uv")
    return assemble("Lc", base=prof, c=0.5, spec=gp_spec)


@pytest.mark.parametrize("case", ["Mc line bubble", "Lc 64x64"])
def test_column_split_changes_no_bit(monkeypatch, case, bubble_1d, cq02,
                                     gp_spec):
    if case == "Mc line bubble":
        op, steps = assemble("Mc", base=bubble_1d, c=0.0, spec=cq02.spec), 40
    else:
        op, steps = _stripe_2d(gp_spec), 20
    rng = np.random.default_rng(7)
    fields = [random_smooth_pair(op.grid, rng) for _ in range(25)]
    (one, n_one), (split, n_split) = _split_runs(
        monkeypatch, lambda: evolve_linear(op, fields, steps * 5e-3, 5e-3,
                                           monitor_every=3))
    assert n_one == 1 and n_split == 3
    for a, b in zip(one, split):
        assert a.times == b.times and a.monitor_times == b.monitor_times
        assert a.monitors["norm"] == b.monitors["norm"]
        assert len(a.snapshots) == steps + 1
        for fa, fb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(fa.ravel(), fb.ravel())


def test_growth_report_is_the_same_split_or_not(monkeypatch,
                                                wide_bubble_basis):
    # criterion 10's settings; the growth test keeps no field snapshots
    _, _, basis = wide_bubble_basis

    def refuse(self, t, field):
        raise AssertionError("growth test stored a snapshot")

    monkeypatch.setattr(Trajectory, "add_snapshot", refuse)
    (one, n_one), (split, n_split) = _split_runs(
        monkeypatch, lambda: dichotomy_growth_test(
            basis, T=20.0, dt=5e-3, n_draws=20,
            rng=np.random.default_rng(21)))
    assert n_one == 1 and n_split == 3
    assert one == split


def test_cores_fall_back_to_the_cpu_count(monkeypatch):
    assert dynamics._cores() >= 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert dynamics._cores() == (os.cpu_count() or 1)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_linear_cayley_step_matches_the_crank_nicolson_product(
        polished_soliton, gp_spec, rng):
    op = assemble("Lc", base=polished_soliton, c=0.8, spec=gp_spec)
    u0 = random_smooth_pair(op.grid, rng)
    dt, steps = 1e-2, 100
    traj = evolve_linear(op, u0, steps * dt, dt, monitor_every=steps)
    gen = (j_matrix(op.grid) @ op.matrix).tocsc()
    eye = sp.identity(gen.shape[0], format="csc")
    lhs = splu((eye - 0.5 * dt * gen).tocsc())
    rhs = (eye + 0.5 * dt * gen).tocsr()
    u = u0.ravel()
    for _ in range(steps):
        u = lhs.solve(rhs @ u)
    assert _rel(traj.snapshots[-1].ravel(), u) <= 1e-13


def test_nonlinear_cayley_step_matches_the_crank_nicolson_product(
        polished_soliton, gp_spec, rng):
    g = polished_soliton.grid
    bg = polished_soliton.profile.as_complex()
    dt, steps = 1e-2, 100
    stepper = NonlinearStepper(bg, 0.8, gp_spec, g, dt, corrections=2)
    eye = sp.identity(g.size, format="csc", dtype=complex)
    lhs = splu((eye - 0.5 * dt * stepper._lin).tocsc())
    rhs = (eye + 0.5 * dt * stepper._lin).tocsr()
    noise = random_smooth_pair(g, rng)
    phi = phi_ref = 1e-3 * noise.as_complex().ravel()
    for _ in range(steps):
        phi = stepper.step(phi)
        base = rhs @ phi_ref
        new = lhs.solve(base + dt * stepper.remainder(phi_ref))
        for _ in range(2):
            r = stepper.remainder(0.5 * (phi_ref + new))
            new = lhs.solve(base + dt * r)
        phi_ref = new
    assert _rel(phi, phi_ref) <= 1e-13
