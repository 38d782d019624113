import numpy as np
import pytest

from nlstab.grid import (GridSpec, PairField, hydro_to_uv, norm,
                         translation_mode)
from nlstab.operators import assemble
from nlstab.profiles import (TravelingWave, _bordered_solve, _newton,
                             branch_momentum_sweep, bubble_amplitude_monotone,
                             continue_branch, dark_soliton,
                             dark_soliton_momentum_exact, kernel_coefficient,
                             polish_field_wave, residual_norm,
                             stationary_bubble, sweep_to_csv,
                             tw_residual_uv)

SQRT_HALF = np.sqrt(0.5)


def test_dark_soliton_stationary_profile(soliton_grid):
    wave = dark_soliton(0.0, soliton_grid)
    x = soliton_grid.axis(0)
    assert np.abs(wave.profile.c1 - np.tanh(x / np.sqrt(2.0))).max() < 1e-15
    assert np.abs(wave.profile.c2).max() == 0.0


def test_dark_soliton_speed_one(soliton_grid):
    wave = dark_soliton(1.0, soliton_grid)
    assert abs(wave.profile.c1.max() - SQRT_HALF) < 1e-6
    assert np.abs(wave.profile.c2 - SQRT_HALF).max() < 1e-12
    i0 = np.argmin(np.abs(soliton_grid.axis(0)))
    u0 = np.hypot(wave.profile.c1[i0], wave.profile.c2[i0])
    assert abs(u0 - SQRT_HALF) < 1e-8


def test_dark_soliton_residual_budget(soliton_grid):
    for c in (0.0, 0.5, 1.0):
        wave = dark_soliton(c, soliton_grid)
        assert wave.residual_norm <= 1e-3


def test_supersonic_rejected(soliton_grid):
    with pytest.raises(ValueError):
        dark_soliton(np.sqrt(2.0), soliton_grid)
    with pytest.raises(ValueError):
        dark_soliton(1.5, soliton_grid)


def test_polish_reaches_discrete_zero(small_grid):
    wave = polish_field_wave(dark_soliton(0.8, small_grid))
    assert wave.residual_norm < 1e-10


def test_residual_reproducible(bubble_1d):
    r1 = residual_norm(bubble_1d)
    r2 = residual_norm(bubble_1d)
    assert abs(r1 - r2) < 1e-12
    assert abs(r1 - bubble_1d.residual_norm) < 1e-12


def test_bubble_line_profile(bubble_1d, cq02):
    phi = np.sqrt(bubble_1d.profile.c1)
    assert phi.min() > 0.0
    assert phi.max() < cq02.amp + 1e-12
    assert bubble_amplitude_monotone(bubble_1d)
    # even profile: the discrete derivative at the origin vanishes
    g = bubble_1d.grid
    i0 = np.argmin(np.abs(g.axis(0)))
    dphi = (phi[i0 + 1] - phi[i0 - 1]) / (2 * g.h[0])
    assert abs(dphi) < 1e-6


def test_bubble_tail_decay(bubble_1d, cq02):
    g = bubble_1d.grid
    x = g.axis(0)
    phi = np.sqrt(bubble_1d.profile.c1)
    drop = np.abs(phi - cq02.amp)
    mask = (x > 10.0) & (x < 25.0) & (drop > 1e-13)
    slope = np.polyfit(x[mask], np.log(drop[mask]), 1)[0]
    kappa = np.sqrt(-cq02.gprime(0.0))
    assert slope < -0.8 * kappa


def test_no_bubble_error(cq02):
    class Hollow:
        amp = cq02.amp
        u0 = cq02.u0
        spec = cq02.spec
        def big_g(self, s):
            return -1.0
    from nlstab.profiles import bubble_turning_amplitude
    with pytest.raises(ValueError):
        bubble_turning_amplitude(Hollow())


def test_continuation_at_zero_is_identity(bubble_1d_small):
    out = continue_branch(bubble_1d_small, [0.0])
    assert out[0].newton_iters == 0
    assert np.abs(out[0].profile.c2).max() == 0.0
    assert np.array_equal(out[0].profile.c1, bubble_1d_small.profile.c1)


def test_branch_kernel_coefficient(bubble_1d_small):
    wave = continue_branch(bubble_1d_small, [0.02])[0]
    assert abs(kernel_coefficient(wave)) <= 1e-8


def test_branch_local_uniqueness(bubble_1d_small, rng):
    wave = continue_branch(bubble_1d_small, [0.02])[0]
    grid = wave.grid
    noise1 = 1e-3 * np.cos(grid.axis(0) / 7.0) * np.exp(-grid.axis(0) ** 2 / 60.0)
    noise2 = 1e-3 * np.sin(grid.axis(0) / 9.0) * np.exp(-grid.axis(0) ** 2 / 80.0)
    k0 = translation_mode(wave.profile)
    vol = grid.cell_volume
    overlap = float(np.sum(noise1 * k0.c1) + np.sum(noise2 * k0.c2)) * vol
    scale = float(np.sum(k0.c1 ** 2) + np.sum(k0.c2 ** 2)) * vol
    noise1 -= (overlap / scale) * k0.c1
    noise2 -= (overlap / scale) * k0.c2
    seed = PairField(grid, wave.profile.c1 + noise1,
                     wave.profile.c2 + noise2, "hydro")
    reconverged = _newton(
        TravelingWave(0.02, seed, wave.spec, 1.0, wave.symmetry), 0.02,
        anchor=wave.profile)
    diff = norm(PairField(grid, reconverged.profile.c1 - wave.profile.c1,
                          reconverged.profile.c2 - wave.profile.c2, "uv"))
    assert diff < 1e-8


def test_translation_equivariance(bubble_1d_small):
    # Newton from a seed off the wave and from that seed shifted by one
    # node ends on waves one node apart
    grid = bubble_1d_small.grid
    prof = bubble_1d_small.profile
    x = grid.axis(0)
    seed_c1 = prof.c1 + 1e-3 * np.exp(-(x - 2.0) ** 2 / 4.0)
    seed_c2 = 1e-3 * np.sin(x / 5.0) * np.exp(-x ** 2 / 40.0)
    ref, shifted = (_newton(TravelingWave(
        0.0, PairField(grid, np.roll(seed_c1, s), np.roll(seed_c2, s),
                       "hydro"), bubble_1d_small.spec, 1.0, "none"), 0.0)
        for s in (0, 1))
    assert ref.newton_iters >= 1 and shifted.newton_iters >= 1
    diff = norm(PairField(
        grid, shifted.profile.c1 - np.roll(ref.profile.c1, 1),
        shifted.profile.c2 - np.roll(ref.profile.c2, 1), "uv"))
    assert diff < 1e-8


def test_wide_bubble_continuation_takes_full_steps(wide_bubble_basis):
    # with straight-line steps in (u1, u2) these solves run into the
    # 25-iteration cap; steps along the polar curve are taken in full
    _, (lo, _, hi), _ = wide_bubble_basis
    assert lo.newton_iters <= 5 and hi.newton_iters <= 5


def test_polish_that_does_not_converge_raises(small_grid, cq02):
    # a dark soliton seed is no wave of the cubic-quintic law
    wave = dark_soliton(0.5, small_grid)
    wave.spec = cq02.spec
    with pytest.raises(RuntimeError):
        polish_field_wave(wave)


def test_momentum_sweep_gp_family(soliton_grid):
    speeds = np.linspace(0.4, 1.2, 9)
    branch = [dark_soliton(c, soliton_grid) for c in speeds]
    sweep = branch_momentum_sweep(branch)
    for s in sweep[1:-1]:
        assert s.dpdc > 0.0
    for s, c in zip(sweep, speeds):
        assert abs(s.momentum - dark_soliton_momentum_exact(c)) < 1e-4


def test_stationary_bubble_momentum_zero(bubble_1d, cq02):
    from nlstab.functionals import momentum
    assert abs(momentum(bubble_1d.profile, "hydro", cq02.spec)) < 1e-14


def test_sweep_csv(tmp_path, soliton_grid):
    speeds = [0.5, 0.6, 0.7]
    branch = [dark_soliton(c, soliton_grid) for c in speeds]
    sweep = branch_momentum_sweep(branch)
    path = tmp_path / "branch.csv"
    sweep_to_csv(sweep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "c,P,E,dPdc,newton_iters,residual"
    assert len(lines) == 4


def test_continuation_starts_from_nearest_solved_wave(bubble_1d_small):
    # c = 0 is the start itself, not a re-solve from c = -0.004, and
    # c = 0.004 continues from the start as a lone target does
    out = continue_branch(bubble_1d_small, [-0.004, 0.0, 0.004])
    assert [wave.c for wave in out] == [-0.004, 0.0, 0.004]
    assert out[1].newton_iters == 0
    assert np.array_equal(out[1].profile.c1, bubble_1d_small.profile.c1)
    assert np.array_equal(out[1].profile.c2, bubble_1d_small.profile.c2)
    alone = continue_branch(bubble_1d_small, [0.004])[0]
    assert np.array_equal(out[2].profile.c1, alone.profile.c1)
    assert np.array_equal(out[2].profile.c2, alone.profile.c2)


def _newton_system(wave):
    """Jacobian and constraint rows of a Newton step at a density/phase wave."""
    grid = wave.grid
    field = hydro_to_uv(wave.profile)
    jac = assemble("Lc", base=field, c=wave.c, spec=wave.spec,
                   closure="edge").matrix
    modes = [translation_mode(field, a).ravel() for a in range(grid.dim)]
    gauge = np.concatenate([-field.c2.ravel(), field.c1.ravel()])
    # the residual R is gauge equivariant, so Lc (i U) = -i R exactly: the
    # gauge is a kernel direction of the Jacobian up to the residual
    res = tw_residual_uv(field, wave.c, wave.spec)
    i_res = np.concatenate([-res.c2.ravel(), res.c1.ravel()])
    assert np.abs(jac @ gauge + i_res).max() <= 1e-12 * abs(jac).max()
    return jac, np.stack(modes + [gauge])


def _bordered_residual(jac, cons, x, rhs, targets):
    """Relative residual of x in the bordered system, with the multipliers
    fitted by least squares."""
    mu = np.linalg.lstsq(cons.T, rhs - jac @ x, rcond=None)[0]
    res = np.concatenate([rhs - jac @ x - cons.T @ mu, targets - cons @ x])
    return np.linalg.norm(res) / np.linalg.norm(np.concatenate([rhs, targets]))


@pytest.mark.parametrize("c", [0.0, 0.01])
def test_bordered_solve_matches_dense_on_the_line_bubble(cq02, c):
    # the Jacobian is singular along the gauge and, on a 1D grid, along
    # the translation up to roundoff: both directions need deflating
    wave = stationary_bubble(cq02, "line", GridSpec(1, 30.0, 256))
    if c:
        wave = continue_branch(wave, [c])[0]
    jac, cons = _newton_system(wave)
    p = len(cons)
    dense = np.block([[jac.toarray(), cons.T], [cons, np.zeros((p, p))]])
    rng = np.random.default_rng(11)
    for _ in range(3):
        rhs, targets = rng.standard_normal(jac.shape[0]), rng.standard_normal(p)
        x = _bordered_solve(jac, rhs, list(cons), targets)
        ref = np.linalg.solve(dense, np.concatenate([rhs, targets]))[: rhs.size]
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_bordered_solve_residual_on_the_radial_bubble(cq02):
    # the median over draws: single residuals at roundoff level scatter
    # over two decades (2e-13 to 2e-11 here; 2e-11 to 2e-10 without the
    # refinement step)
    wave = continue_branch(stationary_bubble(
        cq02, "radial-2D", GridSpec(2, 30.0, 64)), [0.01])[0]
    jac, cons = _newton_system(wave)
    rng = np.random.default_rng(5)
    residuals = []
    for _ in range(9):
        rhs = rng.standard_normal(jac.shape[0])
        targets = rng.standard_normal(len(cons))
        x = _bordered_solve(jac, rhs, list(cons), targets)
        residuals.append(_bordered_residual(jac, cons, x, rhs, targets))
    assert np.median(residuals) <= 1.2e-11
