import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from nlstab import dynamics
from nlstab.dynamics import (NonlinearStepper, Trajectory,
                             dichotomy_growth_test, evolve_linear,
                             evolve_nonlinear, fit_log_slope,
                             monitor_invariants)
from nlstab.grid import GridSpec, PairField, as_uv, norm
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
    op = assemble("Lc", base=wave, c=0.0, spec=gp_spec, k=0.35)
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


def test_nonlinear_scheme_reduces_to_linear(polished_soliton, gp_spec, rng,
                                            monkeypatch):
    g = polished_soliton.grid
    c = 0.8
    eps = 1e-3
    noise = random_smooth_pair(g, rng)
    u0 = PairField(g, polished_soliton.profile.c1 + eps * noise.c1,
                   polished_soliton.profile.c2 + eps * noise.c2, "uv")
    # without its explicit remainder the stepper is the linear CN flow
    monkeypatch.setattr(NonlinearStepper, "remainder",
                        lambda self, phi_flat, out=None:
                        np.zeros_like(phi_flat))
    traj = evolve_nonlinear(u0, c, gp_spec, 0.5, 1e-3,
                            background=polished_soliton.profile,
                            drift_guard=None)
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


def test_fit_log_slope_refuses_nan():
    # NaN > 0 is false, so a mask on positive values alone would drop
    # these six and fit the other five to 0.37
    t = np.linspace(0.0, 1.0, 11)
    vals = np.exp(0.37 * t)
    vals[-6:] = np.nan
    with pytest.raises(ValueError, match="6 non-finite values"):
        fit_log_slope(t, vals)


def test_fit_log_slope_refuses_inf_in_its_window():
    t = np.linspace(0.0, 1.0, 11)
    vals = np.exp(0.37 * t)
    vals[-1] = np.inf
    with pytest.raises(ValueError, match="1 non-finite values"):
        fit_log_slope(t, vals)
    # outside the window the value is not read
    assert abs(fit_log_slope(t, vals, window=(0.0, 0.5)) - 0.37) < 1e-12


def test_guarded_run_takes_each_energy_once(gp_spec, monkeypatch):
    # the drift guard's energy of an accepted step is the monitor's E:
    # one energy per step tried, plus the initial field's
    wave = dark_soliton(0.5, GridSpec(1, 40.0, 256), gp_spec)
    energy, step = dynamics.field_energy, NonlinearStepper.step
    calls = {"energy": 0, "step": 0}

    def counted_energy(field, spec):
        calls["energy"] += 1
        return energy(field, spec)

    def counted_step(self, phi):
        calls["step"] += 1
        return step(self, phi)

    monkeypatch.setattr(dynamics, "field_energy", counted_energy)
    monkeypatch.setattr(NonlinearStepper, "step", counted_step)
    traj = evolve_nonlinear(as_uv(wave.profile), 0.5, gp_spec, 1.0, 0.01,
                            monitor_every=10, drift_guard=1e-6)
    assert len(traj.monitor_times) == 20
    assert calls["energy"] == calls["step"] + 1
    snapshots = dict(zip(traj.times, traj.snapshots))
    assert set(traj.monitor_times) <= set(snapshots)
    for t, e in zip(traj.monitor_times, traj.monitors["E"]):
        assert e == energy(snapshots[t], gp_spec)


def test_nonlinear_remainder_matches_padded_reference(gp_spec):
    # the remainder must be the frame equation minus its implicit part,
    # with the background closed by its edge values and the perturbation
    # by zero, also where neither the background nor the perturbation is
    # flat at the edge
    g = GridSpec(1, 40.0, 256)
    x, h, c = g.axis(0), g.h[0], 0.3
    bg = np.exp(1j * np.pi * x / 40.0)
    phi = 1e-3 * np.exp(-(x - 39.0) ** 2)

    def d1(f, pad):
        p = np.pad(f, 1, mode=pad)
        return (p[2:] - p[:-2]) / (2.0 * h)

    def lap(f, pad):
        p = np.pad(f, 1, mode=pad)
        return (p[2:] - 2.0 * f + p[:-2]) / h ** 2

    u = bg + phi
    full = (c * (d1(bg, "edge") + d1(phi, "constant"))
            + 1j * (lap(bg, "edge") + lap(phi, "constant")
                    + gp_spec.f(np.abs(u) ** 2) * u))
    implicit = (c * d1(phi, "constant")
                + 1j * (lap(phi, "constant") + gp_spec.f(np.abs(bg) ** 2) * phi))
    ref = full - implicit
    stepper = NonlinearStepper(bg, c, gp_spec, g, 1e-3)
    err = np.abs(stepper.remainder(phi) - ref).max()
    assert err <= 1e-8 * np.abs(ref).max()


def _spy_chunks(monkeypatch):
    """The column slices of every block ``_linear_flow`` steps from now on,
    one list per block."""
    chunks = []

    class Spy(ThreadPoolExecutor):
        def map(self, fn, slices):
            chunks.append(list(slices))
            return super().map(fn, chunks[-1])

    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", Spy)
    return chunks


def _split_runs(monkeypatch, run):
    """``run()`` at a chunk width of 25 and of 9 columns, with the most
    column chunks each used."""
    out = []
    for width in (25, 9):
        monkeypatch.setattr(dynamics, "_CHUNK", width)
        chunks = _spy_chunks(monkeypatch)
        out.append((run(), max(map(len, chunks))))
    return out


def _stripe():
    # 64^2: the dark soliton of speed 0.5 extruded along y
    g = GridSpec(2, 20.0, 64)
    x = g.axis(0)[:, None] + np.zeros(g.shape)
    return PairField(g, np.sqrt(1.0 - 0.125) * np.tanh(np.sqrt(1.75) / 2 * x),
                     np.full(g.shape, 0.5 / np.sqrt(2.0)), "uv")


def _stripe_2d(gp_spec):
    return assemble("Lc", base=_stripe(), c=0.5, spec=gp_spec)


@pytest.mark.parametrize("case", ["Mc line bubble"])
def test_column_split_changes_no_bit(monkeypatch, case, bubble_1d, cq02):
    # in 1D each column is solved on its own, so any split gives its bits;
    # a 2D block's bits follow the chunk width (next test)
    op, steps = assemble("Mc", base=bubble_1d, c=0.0, spec=cq02.spec), 40
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


def test_linear_block_is_the_same_on_any_core_count(monkeypatch, gp_spec):
    # the split depends on the block alone: the 64^2 stripe, whose BLAS
    # kernels round by chunk width, keeps every bit on 1, 2 and 3 cores
    op, steps = _stripe_2d(gp_spec), 20
    rng = np.random.default_rng(7)
    fields = [random_smooth_pair(op.grid, rng) for _ in range(25)]
    for width in (1, 13, 25):
        runs = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cores: set(range(n)))
            monkeypatch.setattr(os, "cpu_count", lambda n=cores: n)
            chunks = _spy_chunks(monkeypatch)
            trajs = evolve_linear(op, fields[:width], steps * 5e-3, 5e-3,
                                  monitor_every=3)
            runs.append((trajs, chunks))
        (ref, ref_chunks), *others = runs
        assert len(ref) == width and len(ref_chunks) == 1
        for trajs, chunks in others:
            for a, b in zip(ref, trajs):
                assert a.times == b.times
                assert a.monitor_times == b.monitor_times
                assert np.array_equal(a.monitors["norm"], b.monitors["norm"])
                assert len(a.snapshots) == steps + 1
                for fa, fb in zip(a.snapshots, b.snapshots):
                    assert np.array_equal(fa.ravel(), fb.ravel())
            assert chunks == ref_chunks


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


def _unpadded_states(op, fields, steps, dt):
    """The block after each Cayley step through splu(I - dt/2 G), no pad."""
    gen = (j_matrix(op.grid) @ op.matrix).tocsc()
    eye = sp.identity(gen.shape[0], format="csc", dtype=gen.dtype)
    lu = splu((eye - 0.5 * dt * gen).tocsc())
    state = np.stack([f.ravel() for f in fields], axis=1)
    states = [state]
    for _ in range(steps):
        new = lu.solve(state)
        new *= 2.0
        new -= state
        state = new
        states.append(state)
    return states


@pytest.mark.parametrize("dt", [5e-3, -5e-3])
@pytest.mark.parametrize("case", ["Mc line bubble", "Lc 64x64",
                                  "Lc line L=200"])
def test_padded_lu_changes_no_bit(monkeypatch, case, dt, bubble_1d, cq02,
                                  gp_spec, wide_bubble_basis):
    # the pad rows only move the block's columns apart in memory: every
    # norm and snapshot is bitwise that of the unpadded LU, at any width.
    # One chunk: a 2D block's BLAS kernels round by the chunk's width
    monkeypatch.setattr(dynamics, "_CHUNK", 25)
    if case == "Mc line bubble":
        op, steps = assemble("Mc", base=bubble_1d, c=0.0, spec=cq02.spec), 40
    elif case == "Lc 64x64":
        op, steps = _stripe_2d(gp_spec), 20
    else:
        op, steps = wide_bubble_basis[2].op, 40
    rng = np.random.default_rng(7)
    fields = [random_smooth_pair(op.grid, rng) for _ in range(25)]
    for width in (1, 13, 25):
        ref = _unpadded_states(op, fields[:width], steps, dt)
        trajs = evolve_linear(op, fields[:width], steps * abs(dt), dt)
        assert len(trajs) == width
        for j, traj in enumerate(trajs):
            cols = [state[:, j].copy() for state in ref]
            assert traj.monitors["norm"] == [
                norm(PairField.from_vector(op.grid, col, "uv"))
                for col in cols]
            assert len(traj.snapshots) == steps + 1
            for snap, col in zip(traj.snapshots, cols):
                assert np.array_equal(snap.ravel(), col)


def test_the_block_lu_is_padded_by_one_cache_line(monkeypatch, bubble_1d,
                                                   cq02):
    # n = 2 N is a power of two; with the pad, the stride between the
    # columns of a solve is an odd number of 64-byte lines
    op = assemble("Mc", base=bubble_1d, c=0.0, spec=cq02.spec)
    n = 2 * op.grid.size
    factored, solved = [], []
    factor = dynamics._crank_nicolson

    class Spy:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solved.append(b.shape[0] * b.itemsize)
            return self.lu.solve(b)

    def spy(gen, dt):
        factored.append(gen.shape)
        return Spy(factor(gen, dt))

    monkeypatch.setattr(dynamics, "_crank_nicolson", spy)
    fields = [random_smooth_pair(op.grid, np.random.default_rng(3))
              for _ in range(13)]
    evolve_linear(op, fields, 0.05, 5e-3)
    assert factored == [(n + 8, n + 8)]
    assert solved and all(stride % 128 == 64 for stride in solved)


def test_the_pad_keeps_the_generators_ordering(bubble_1d, cq02, gp_spec):
    # the pad's singleton columns are ordered first, the generator's
    # columns and pivot rows as without the pad
    for op in (assemble("Mc", base=bubble_1d, c=0.0, spec=cq02.spec),
               _stripe_2d(gp_spec)):
        gen = (j_matrix(op.grid) @ op.matrix).tocsc()
        n = gen.shape[0]
        plain = dynamics._crank_nicolson(gen, 5e-3)
        padded = dynamics._crank_nicolson(
            sp.block_diag((gen, sp.csc_matrix((8, 8))), format="csc"), 5e-3)
        for perm, ref in ((padded.perm_c, plain.perm_c),
                          (padded.perm_r, plain.perm_r)):
            assert sorted(perm[n:]) == list(range(8))
            assert np.array_equal(perm[:n] - 8, ref)


@pytest.mark.parametrize("dt", [0.1, 0.2])
def test_growth_test_takes_a_coarse_dt(wide_bubble_basis, dt):
    # criterion 10's settings but for dt: the records are spaced in time,
    # so a coarse step still leaves enough of them for the slope fits
    _, _, basis = wide_bubble_basis
    out = dichotomy_growth_test(basis, T=20.0, dt=dt, n_draws=20,
                                rng=np.random.default_rng(21))
    assert abs(out["backward_slope"] + basis.rate) <= 0.05 * basis.rate
    assert out["cs_slope_max"] <= 1e-3
    assert out["center_bound_max"] <= 10.0


def test_growth_test_cadence_at_the_callers_dt():
    # every caller steps at dt = 5e-3, where the records fall every 50
    # steps (draws) and every 20 steps (backward run), as they always did
    assert dynamics._steps_per(dynamics._DRAW_EVERY, 5e-3) == 50
    assert dynamics._steps_per(dynamics._BACK_EVERY, -5e-3) == 20
    assert dynamics._steps_per(dynamics._BACK_EVERY, 1.0) == 1


def test_unknown_momentum_kind_raises_before_stepping(gp_spec, monkeypatch):
    g = GridSpec(1, 40.0, 256)
    moving, resting = (dark_soliton(c, g, gp_spec).profile for c in (0.5, 0.0))

    def refuse(self, phi_flat):
        raise AssertionError("stepped with an unknown momentum kind")

    with monkeypatch.context() as patch:
        patch.setattr(NonlinearStepper, "step", refuse)
        with pytest.raises(ValueError, match="'renormalised1D'"):
            evolve_nonlinear(moving, 0.5, gp_spec, 0.02, 0.01,
                             momentum_kind="renormalised1D")
    # a known kind that a field leaves undefined still reads NaN: the c=0
    # soliton vanishes at x=0
    traj = evolve_nonlinear(resting, 0.0, gp_spec, 0.02, 0.01,
                            momentum_kind="renormalized1D")
    assert np.all(np.isnan(traj.series("P")[1]))


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


@pytest.fixture(scope="module")
def still_soliton():
    return polish_field_wave(dark_soliton(0.0, GridSpec(1, 40.0, 512)))


def _check_nonlinear_cayley(case, polished_soliton, still_soliton, gp_spec,
                            rng):
    # the reference is SuperLU's product form, whichever LU the stepper took
    if case.startswith("stripe"):
        c, bg, steps = 0.5, _stripe(), 20
    elif case == "soliton c=0":
        c, bg, steps = 0.0, still_soliton.profile, 100
    else:
        c, bg, steps = 0.8, polished_soliton.profile, 100
    g = bg.grid
    dt = 1e-2
    stepper = NonlinearStepper(bg.as_complex(), c, gp_spec, g, dt,
                               corrections=2)
    if case.endswith("set_dt"):
        dt = dt / 2
        stepper.set_dt(dt)
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


def test_nonlinear_cayley_step_matches_the_crank_nicolson_product(
        polished_soliton, still_soliton, gp_spec, rng):
    _check_nonlinear_cayley("soliton c=0.8", polished_soliton, still_soliton,
                            gp_spec, rng)


@pytest.mark.parametrize("case", ["soliton c=0", "soliton c=0.8 after set_dt",
                                  "stripe 64x64 c=0.5"])
def test_nonlinear_cayley_step_matches_the_product_in_other_regimes(
        case, polished_soliton, still_soliton, gp_spec, rng):
    _check_nonlinear_cayley(case, polished_soliton, still_soliton, gp_spec,
                            rng)


@pytest.mark.parametrize("case", ["soliton c=0.8", "stripe 64x64 c=0.5"])
def test_nonlinear_step_is_bitwise_the_allocating_form(case, polished_soliton,
                                                       gp_spec, rng):
    # the step builds its right-hand sides in scratch arrays and solves
    # through the halved LU; the allocating form lu.solve(2 phi + dt r) -
    # phi through a full LU of the same kind must give every bit
    tridiagonal = case == "soliton c=0.8"
    bg, c = (polished_soliton.profile, 0.8) if tridiagonal else (_stripe(),
                                                                 0.5)
    dt = 1e-2
    stepper = NonlinearStepper(bg.as_complex(), c, gp_spec, bg.grid, dt,
                               corrections=2)
    assert isinstance(stepper._lu, dynamics._TridiagonalLU) == tridiagonal
    mat = (sp.identity(bg.grid.size, format="csc", dtype=complex)
           - 0.5 * dt * stepper._lin).tocsc()
    lu = dynamics._TridiagonalLU(mat) if tridiagonal else splu(mat)

    def remainder(phi):
        u = stepper.bg + phi
        return (stepper._i_tw
                + 1j * (gp_spec.f(np.abs(u) ** 2) - stepper._pot) * u)

    phi = ref = 1e-3 * random_smooth_pair(bg.grid, rng).as_complex().ravel()
    for _ in range(20):
        phi = stepper.step(phi)
        two_phi = 2.0 * ref
        new = lu.solve(two_phi + dt * remainder(ref)) - ref
        for _ in range(2):
            r = remainder(0.5 * (ref + new))
            new = lu.solve(two_phi + dt * r) - ref
        ref = new
    assert np.array_equal(phi, ref)
    assert np.array_equal(stepper.remainder(phi), remainder(phi))


def test_the_tridiagonal_lu_serves_1d_scalar_generators_only(
        polished_soliton, gp_spec, rng):
    dt = 1e-2
    stepper = NonlinearStepper(polished_soliton.profile.as_complex(), 0.8,
                               gp_spec, polished_soliton.grid, dt)
    assert isinstance(stepper._lu, dynamics._TridiagonalLU)
    stepper.set_dt(dt / 2)
    assert isinstance(stepper._lu, dynamics._TridiagonalLU)
    mat = 0.5 * (sp.identity(stepper._lin.shape[0], dtype=complex)
                 - 0.25 * dt * stepper._lin).tocsc()
    b = random_smooth_pair(polished_soliton.grid, rng).as_complex().ravel()
    assert _rel(stepper._lu.solve(b), splu(mat).solve(b)) <= 1e-13

    op = assemble("Lc", base=polished_soliton, c=0.8, spec=gp_spec)
    block = (j_matrix(op.grid) @ op.matrix).tocsc()
    assert isinstance(dynamics._crank_nicolson(block, dt), SuperLU)
    bg = _stripe().as_complex()
    flat = NonlinearStepper(bg, 0.5, gp_spec, GridSpec(2, 20.0, 64), dt)
    assert isinstance(flat._lu, SuperLU)


def _halving_case(case, bubble_1d, cq02, gp_spec, polished_soliton):
    """A generator of the named kind and the shapes of the right-hand
    sides its steppers solve for: a vector (nonlinear) or a block."""
    if case.endswith("complex"):
        bg, c = ((polished_soliton.profile, 0.8) if case == "1D complex"
                 else (_stripe(), 0.5))
        lin = NonlinearStepper(bg.as_complex(), c, gp_spec, bg.grid, 1e-2)._lin
        return lin, [(lin.shape[0],)]
    if case == "padded 1D block":
        op = assemble("Mc", base=bubble_1d, c=0.0, spec=cq02.spec)
        gen = sp.block_diag((j_matrix(op.grid) @ op.matrix,
                             sp.csc_matrix((8, 8))), format="csc")
        return gen, [(gen.shape[0], 1), (gen.shape[0], 13)]
    op = _stripe_2d(gp_spec)
    gen = j_matrix(op.grid) @ op.matrix
    return gen, [(gen.shape[0], width) for width in (1, 6, 13)]


@pytest.mark.parametrize("dt", [5e-3, -5e-3, 1e-2, -1e-2])
@pytest.mark.parametrize("case", ["1D complex", "2D complex",
                                  "padded 1D block", "64x64 real"])
def test_the_halved_factor_solves_twice_the_full_one(
        case, dt, bubble_1d, cq02, gp_spec, polished_soliton):
    # halving I - dt/2 G is exact and both LUs pivot on ratios: the
    # halved LU pivots as the full one does, and its solve is bitwise
    # twice the full one's, the Cayley map 2 (I - dt/2 G)^-1
    gen, shapes = _halving_case(case, bubble_1d, cq02, gp_spec,
                                polished_soliton)
    eye = sp.identity(gen.shape[0], format="csc", dtype=gen.dtype)
    mat = (eye - 0.5 * dt * gen).tocsc()
    halved = dynamics._crank_nicolson(gen, dt)
    tridiagonal = case == "1D complex"
    assert isinstance(halved, dynamics._TridiagonalLU) == tridiagonal
    full = dynamics._TridiagonalLU(mat) if tridiagonal else splu(mat)
    if not tridiagonal:
        assert np.array_equal(halved.perm_c, full.perm_c)
        assert np.array_equal(halved.perm_r, full.perm_r)
    rng = np.random.default_rng(5)
    for shape in shapes:
        b = rng.standard_normal(shape)
        if gen.dtype == complex:
            b = b + 1j * rng.standard_normal(shape)
        assert np.array_equal(halved.solve(b), 2.0 * full.solve(b))


def test_a_singular_tridiagonal_matrix_raises_as_splu_does():
    # I - gen/2 is tridiagonal, and singular: its first two columns are equal
    mat = sp.diags([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0, 2.0],
                    [1.0, 1.0, 1.0, 1.0]], [-1, 0, 1], format="csc")
    gen = 2.0 * (sp.identity(5, format="csc") - mat)
    with pytest.raises(RuntimeError, match="exactly singular"):
        splu(mat)
    with pytest.raises(RuntimeError, match="exactly singular"):
        dynamics._crank_nicolson(gen, 1.0)
