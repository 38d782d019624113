import copy
import weakref

import numpy as np
import pytest

from nlstab import profiles, shooting
from nlstab.functionals import momentum
from nlstab.grid import (GridSpec, PairField, as_uv, hydro_to_uv, norm,
                         translation_mode)
from nlstab.nonlinearity import cq_constants
from nlstab.operators import assemble
from nlstab.profiles import (_SEED_XTOL, _TOL, TravelingWave, _BorderedLU,
                             _newton, branch_momentum_sweep,
                             bubble_amplitude_monotone, continue_branch,
                             dark_soliton, dark_soliton_momentum_exact,
                             polish_field_wave, residual_norm,
                             stationary_bubble, tw_residual_uv)

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
    # the message names the allowed range and the speed given
    with pytest.raises(ValueError, match=r"\[0, sqrt\(2\)\), not c = -0.5$"):
        dark_soliton(-0.5, soliton_grid)


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


def test_line_seed_tail_is_the_linear_decay(cq02):
    # the line seed samples the N = 1 shot at r = |x|; past the graft
    # radius its dip q is u_end e^{-kappa(|x| - ts)}, the exact decay of
    # the linearization, and stays positive out to |x| = L
    grid = GridSpec(1, 200.0, 1024)
    seed = stationary_bubble(cq02, "line", grid, polish=False)
    shot = shooting.find_alpha0(cq02, 1, xtol=_SEED_XTOL)
    x = np.abs(grid.axis(0))
    q = shot.amplitude_at(x)
    assert np.abs(np.sqrt(seed.profile.c1) - (cq02.amp - q)).max() <= 1e-15
    ts = shot.tail_start
    tail = x > ts
    u_end = shot.u[shot.r <= ts][-1]
    decay = u_end * np.exp(-shot.kappa * (x[tail] - ts))
    assert np.abs(q[tail] / decay - 1.0).max() <= 1e-15
    assert x[tail].max() == grid.half_length[0]
    assert np.all(q[tail] > 0.0)


def test_line_bubble_above_the_critical_ratio():
    # above c0 the zero of G lies below u1, so the N = 1 shooting bracket
    # opens at u0; the seed follows the decaying orbit out to any |x|, and
    # Newton lands on the bubble on a long box as on a short one
    k = cq_constants(0.21, 1.0, 1.0)
    assert k.c_ratio > k.c0
    for half_length in (30.0, 60.0):
        wave = stationary_bubble(k, "line", GridSpec(1, half_length, 1024))
        assert wave.newton_iters <= 3
        assert wave.projected_residual <= _TOL
        assert bubble_amplitude_monotone(wave)


def test_no_ground_state_is_refused(cq02):
    # g(s) = g'(0) s, the far-field linearization alone, has no interior
    # zero: no shot crosses, and neither geometry finds a bubble
    law = copy.copy(cq02)
    slope = float(cq02.gprime(0.0))
    law.g = lambda s: slope * s
    law.gprime = lambda s: slope + 0.0 * s
    law.gsecond = lambda s: 0.0 * s
    for geometry, grid in (("line", GridSpec(1, 30.0, 256)),
                           ("radial-2D", GridSpec(2, 30.0, 64))):
        with pytest.raises(ValueError, match="classify identically"):
            stationary_bubble(law, geometry, grid)


def test_continuation_at_zero_is_identity(bubble_1d_small):
    out = continue_branch(bubble_1d_small, [0.0])
    assert out[0].newton_iters == 0
    assert np.abs(out[0].profile.c2).max() == 0.0
    assert np.array_equal(out[0].profile.c1, bubble_1d_small.profile.c1)


def kernel_coefficient(wave):
    """Component of the full residual along the translation direction."""
    field = as_uv(wave.profile)
    res = tw_residual_uv(field, wave.c, wave.spec)
    k0 = translation_mode(field)
    return (float(res.ravel() @ k0.ravel()) * wave.grid.cell_volume
            / norm(k0) ** 2)


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
        TravelingWave(0.02, seed, wave.spec, 1.0), 0.02,
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
                       "hydro"), bubble_1d_small.spec, 1.0), 0.0)
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


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("case", ["line", "radial"])
def test_negative_speed_is_the_conjugate(case, bubble_1d_small,
                                         radial_branch):
    # from the real c = 0 bubble the second of a +-c pair is not solved:
    # it is the conjugate of the first, and that is bit for bit the wave
    # Newton returns for c alone
    if case == "line":
        start, c = bubble_1d_small, 0.004
        (alone,) = continue_branch(start, [c])
    else:
        start, (alone,) = radial_branch
        c = alone.c
    lo, hi = continue_branch(start, [-c, c])
    assert lo.newton_iters > 0 and hi.newton_iters == 0
    assert hi.c == c and hi.profile.rep == lo.profile.rep == "hydro"
    assert _same_bits(hi.profile.c1, lo.profile.c1)
    assert _same_bits(hi.profile.c2, -lo.profile.c2)
    assert np.any(hi.profile.c2)
    assert _same_bits(hi.profile.c1, alone.profile.c1)
    assert _same_bits(hi.profile.c2, alone.profile.c2)
    assert hi.residual_norm == alone.residual_norm == lo.residual_norm
    assert (hi.projected_residual == alone.projected_residual
            == lo.projected_residual)


def test_no_conjugate_from_a_moving_start(bubble_1d_small):
    # conjugation maps the branch from a real c = 0 wave onto itself; from
    # a c = 0.01 wave both targets of a +-c pair are Newton solves
    start = continue_branch(bubble_1d_small, [0.01])[0]
    lo, hi = continue_branch(start, [-0.004, 0.004])
    assert lo.newton_iters > 0 and hi.newton_iters > 0


def test_continuation_of_a_uv_wave():
    # the GP dark soliton is stored in (u1, u2); continuation keeps that
    g = GridSpec(1, 40.0, 512)
    start = dark_soliton(0.5, g, polish=True)
    wave = continue_branch(start, [0.6])[0]
    assert wave.profile.rep == "uv" and wave.c == 0.6
    p = momentum(wave.profile, "renormalized1D")
    ref = momentum(dark_soliton(0.6, g, polish=True).profile,
                   "renormalized1D")
    assert abs(p - ref) <= 1e-9 * abs(ref)


@pytest.fixture(scope="module")
def radial_branch(bubble_2d):
    return bubble_2d, continue_branch(bubble_2d, [0.01])


@pytest.mark.parametrize("geometry, fixture, bound", [
    ("radial-2D", "bubble_2d", 1e-8), ("line", "bubble_1d", 1e-13)],
    ids=["radial-2D", "line"])
def test_loose_seed_polishes_to_the_same_bubble(request, cq02, monkeypatch,
                                                geometry, fixture, bound):
    # Newton moves the seed by the grid's O(h^2) error; the bisections of
    # the shooting amplitude past _SEED_XTOL change nothing it keeps
    loose = request.getfixturevalue(fixture)
    monkeypatch.setattr(profiles, "_SEED_XTOL", 1e-12)
    fine = stationary_bubble(cq02, geometry, loose.grid)
    assert loose.newton_iters == fine.newton_iters
    assert np.abs(np.sqrt(loose.profile.c1)
                  - np.sqrt(fine.profile.c1)).max() <= bound


def test_newton_keeps_the_projected_residual(radial_branch):
    # in 2D the full residual is dominated by the translation component
    # Newton leaves by design; the residual it drives below _TOL is kept
    start, (moving,) = radial_branch
    for wave in (start, moving):
        assert wave.projected_residual <= _TOL
    assert moving.residual_norm > 1e-6
    # a target at a solved speed is a copy; a closed form is not solved
    copy = continue_branch(start, [0.0])[0]
    assert copy.projected_residual == start.projected_residual
    assert dark_soliton(0.5, GridSpec(1, 40.0, 256)).projected_residual is None


def _mirrored(field):
    """``field`` averaged with its mirror image x2 -> -x2 about x2 = 0."""
    flip = [np.roll(a[:, ::-1], 1, axis=1) for a in (field.c1, field.c2)]
    return PairField(field.grid, (field.c1 + flip[0]) / 2,
                     (field.c2 + flip[1]) / 2, field.rep)


def test_newton_endpoint_does_not_depend_on_seed_mirroring(bubble_2d,
                                                           monkeypatch):
    # the box [-L, L) pairs no node with x2 = -L, so its moving waves are
    # not mirror symmetric; Newton from seeds averaged with their x2
    # mirror image lands on the same waves up to roundoff
    shipped = continue_branch(bubble_2d, [0.01, 0.03])
    newton = profiles._newton
    monkeypatch.setattr(profiles, "_newton", lambda wave, c: newton(
        TravelingWave(wave.c, _mirrored(wave.profile), wave.spec, 0.0), c,
        anchor=wave.profile))
    mirrored = continue_branch(bubble_2d, [0.01, 0.03])
    for a, b in zip(shipped, mirrored):
        ua, ub = as_uv(a.profile), as_uv(b.profile)
        assert max(np.abs(ua.c1 - ub.c1).max(),
                   np.abs(ua.c2 - ub.c2).max()) <= 1e-9
        pa, pb = (momentum(w.profile, "hydro", w.spec) for w in (a, b))
        assert abs(pa - pb) <= 1e-10 * abs(pa)
        assert abs(a.newton_iters - b.newton_iters) <= 1


def _translation_overlap(anchor, field):
    """max over the translation modes t_a of the anchor U of
    |<t_a, u - U>| / (|t_a| |u - U|)."""
    base = as_uv(anchor.profile)
    dev = as_uv(field).ravel() - base.ravel()
    worst = 0.0
    for a in range(anchor.grid.dim):
        t_a = translation_mode(base, a).ravel()
        worst = max(worst, abs(t_a @ dev)
                    / (np.linalg.norm(t_a) * np.linalg.norm(dev)))
    return worst


@pytest.mark.parametrize("case", ["line L=30", "line L=200", "radial 64x64"])
def test_continuation_pins_the_translation(case, bubble_1d_small,
                                           wide_bubble_basis, radial_branch):
    # speed_derivative differences branch waves without registering them:
    # each continued wave must move off its anchor orthogonally to the
    # anchor's translation modes, and a one-cell shift must show
    if case == "line L=30":
        start = bubble_1d_small
        waves = continue_branch(start, [-0.01, 0.01])
    elif case == "line L=200":
        start, (lo, _, hi), _ = wide_bubble_basis
        waves = [lo, hi]
    else:
        start, waves = radial_branch
    for wave in waves:
        assert _translation_overlap(start, wave.profile) <= 1e-2
        u = as_uv(wave.profile)
        shifted = PairField(start.grid, np.roll(u.c1, 1, axis=0),
                            np.roll(u.c2, 1, axis=0), "uv")
        assert _translation_overlap(start, shifted) > 1e-2


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
        x = _BorderedLU(jac, cons).solve(jac, rhs, targets)
        ref = np.linalg.solve(dense, np.concatenate([rhs, targets]))[: rhs.size]
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_bordered_solve_residual_on_the_radial_bubble(radial_branch):
    # the median over draws: single residuals at roundoff level scatter
    # over two decades (2e-13 to 2e-11 here; 2e-11 to 2e-10 without the
    # refinement step)
    wave = radial_branch[1][0]
    jac, cons = _newton_system(wave)
    rng = np.random.default_rng(5)
    residuals = []
    for _ in range(9):
        rhs = rng.standard_normal(jac.shape[0])
        targets = rng.standard_normal(len(cons))
        x = _BorderedLU(jac, cons).solve(jac, rhs, targets)
        residuals.append(_bordered_residual(jac, cons, x, rhs, targets))
    assert np.median(residuals) <= 1.2e-11


class _Counted(_BorderedLU):
    """The factor object, recording its solves and, at each build, how
    many factors built before it are still alive."""

    def __init__(self, matrix, constraints):
        _Counted.alive.append(sum(ref() is not None for ref in _Counted.built))
        _Counted.built.append(weakref.ref(self))
        super().__init__(matrix, constraints)

    def solve(self, matrix, rhs, targets):
        # Newton updates its residual in place: keep a copy
        _Counted.solves.append((matrix, rhs.copy(), targets, self.cons))
        return super().solve(matrix, rhs, targets)


def _counted_continuation(start, reuse):
    _Counted.built, _Counted.alive, _Counted.solves = [], [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profiles, "_BorderedLU", _Counted)
        if reuse is not None:
            patch.setattr(profiles, "_REUSE", reuse)
        (wave,) = continue_branch(start, [0.01])
    return wave, _Counted.alive, _Counted.solves


@pytest.fixture(scope="module")
def held_and_fresh(bubble_2d):
    """The 64^2 radial bubble continued to c = 0.01 as shipped, and with a
    fresh LU at every Newton iteration (_REUSE = 0).  Each run gives the
    wave, the count of older factors alive at each build, and the solves
    (Jacobian, right side, targets, constraints)."""
    return (_counted_continuation(bubble_2d, None),
            _counted_continuation(bubble_2d, 0.0))


def test_held_lu_lands_on_the_fresh_lu_wave(held_and_fresh):
    (held, held_builds, _), (fresh, fresh_builds, _) = held_and_fresh
    assert held.newton_iters == fresh.newton_iters == len(fresh_builds)
    assert len(held_builds) < held.newton_iters
    a, b = as_uv(held.profile), as_uv(fresh.profile)
    assert max(np.abs(a.c1 - b.c1).max(), np.abs(a.c2 - b.c2).max()) <= 1e-9
    p_held, p_fresh = (momentum(w.profile, "hydro", w.spec)
                       for w in (held, fresh))
    assert abs(p_held - p_fresh) <= 1e-10 * abs(p_fresh)
    assert held.projected_residual <= _TOL


def test_one_lu_alive_at_a_time(held_and_fresh):
    # an LU held while the next is built would pin both in memory
    for _, alive, _ in held_and_fresh:
        assert len(alive) >= 2 and not any(alive)


def test_held_lu_solves_the_next_iterate(held_and_fresh):
    # an LU factored at one Newton iterate solves at the next, with that
    # iterate's Jacobian, against a fresh LU there.  Where the Jacobians
    # differ by less than _REUSE, as in the quadratic tail where Newton
    # holds its LU, the refinement step leaves at most 1e-5 relative
    # (measured 1.5e-6 after an update of 3.0e-5; after the 1.0e-3 update
    # before it, 2.6e-3: the gap goes as the update squared)
    _, (_, _, solves) = held_and_fresh
    tail = 0
    for (old, *_), (jac, rhs, targets, cons) in zip(solves, solves[1:]):
        if abs(jac - old).max() > profiles._REUSE * abs(old).max():
            continue
        tail += 1
        held = _BorderedLU(old, cons).solve(jac, rhs, targets)
        fresh = _BorderedLU(jac, cons).solve(jac, rhs, targets)
        assert np.abs(held - fresh).max() <= 1e-5 * np.abs(fresh).max()
    assert tail >= 1
