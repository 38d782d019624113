import numpy as np
import pytest
import scipy.sparse as sp

from nlstab.grid import GridSpec, PairField, inner, uv_to_hydro
from nlstab.nonlinearity import NonlinearitySpec
from nlstab.operators import (assemble, coercivity_constant,
                              ghost_symmetrized, j_apply, j_inverse_apply,
                              quadratic_form, random_smooth_pair, tc_map)
from nlstab.profiles import dark_soliton, translation_mode

GOLDEN_SPLIT = (np.sqrt(5.0) - 1.0) / 2.0


def _background(grid, spec):
    """The constant background (sqrt(r0), 0): there Lc is the far field."""
    return PairField(grid, np.full(grid.shape, np.sqrt(spec.r0)),
                     np.zeros(grid.shape), "uv")


def test_far_field_blocks(gp_spec):
    g = GridSpec(1, 40.0, 256)
    op = assemble("Lc", base=_background(g, gp_spec), c=0.0, spec=gp_spec)
    n = g.size
    lap = g.neg_laplacian("zero")
    assert abs(op.matrix[:n, :n] - (lap + 2.0 * sp.identity(n))).max() < 1e-12
    assert abs(op.matrix[n:, n:] - lap).max() < 1e-12
    assert abs(op.matrix[:n, n:]).max() == 0.0


def test_block_diagonal_at_rest(bubble_1d_small, cq02):
    op = assemble("Mc", base=bubble_1d_small, c=0.0, spec=cq02.spec)
    n = bubble_1d_small.grid.size
    assert abs(op.matrix[:n, n:]).max() == 0.0
    assert abs(op.matrix[n:, :n]).max() == 0.0


def test_second_variation_blocks_gp(small_grid, gp_spec):
    wave = dark_soliton(0.0, small_grid)
    op = assemble("Lc", base=wave, c=0.0, spec=gp_spec)
    n = small_grid.size
    u0 = wave.profile.c1
    lap = small_grid.neg_laplacian("zero")
    pot1 = (op.matrix[:n, :n] - lap).diagonal()
    pot2 = (op.matrix[n:, n:] - lap).diagonal()
    assert np.abs(pot1 - (3.0 * u0 ** 2 - 1.0)).max() < 1e-12
    assert np.abs(pot2 - (u0 ** 2 - 1.0)).max() < 1e-12


def test_symmetry_of_symmetric_kinds(bubble_1d_small, soliton_c05, cq02,
                                     gp_spec):
    ops = [
        assemble("Lc", base=soliton_c05, c=0.5, spec=gp_spec),
        assemble("Lc", base=_background(soliton_c05.grid, gp_spec), c=0.7,
                 spec=gp_spec),
        assemble("Mc", base=bubble_1d_small, c=0.0, spec=cq02.spec),
        assemble("A", base=bubble_1d_small, spec=cq02.spec),
        assemble("Lc", base=soliton_c05, c=0.5, spec=gp_spec, k=0.4),
    ]
    for op in ops:
        assert op.symmetry_defect() <= 1e-10


def test_only_lc_takes_a_wave_number(bubble_1d_small, soliton_c05, cq02,
                                     gp_spec):
    for kind in ("Mc", "A"):
        with pytest.raises(ValueError, match="takes no wave number k"):
            assemble(kind, base=bubble_1d_small, spec=cq02.spec, k=0.4)
    plain = assemble("Lc", base=soliton_c05, c=0.5, spec=gp_spec)
    shifted = assemble("Lc", base=soliton_c05, c=0.5, spec=gp_spec, k=0.4)
    expected = plain.matrix + 0.4 ** 2 * sp.identity(plain.shape[0],
                                                     format="csr")
    assert (shifted.matrix != expected).nnz == 0


def test_hydro_off_blocks_are_adjoint(cq02, bubble_1d_small):
    from nlstab.profiles import continue_branch
    wave = continue_branch(bubble_1d_small, [0.02])[0]
    op = assemble("Mc", base=wave, c=0.02, spec=cq02.spec)
    n = wave.grid.size
    m12 = op.matrix[:n, n:]
    m21 = op.matrix[n:, :n]
    assert abs(m12 - m21.T).max() < 1e-10


def test_tc_map_flat_background():
    g = GridSpec(1, 40.0, 256)
    base = PairField(g, np.ones(g.shape), np.zeros(g.shape), "hydro")
    f = PairField(g, np.full(g.shape, 2.0), np.full(g.shape, 3.0), "uv")
    out = tc_map(f, base)
    assert np.abs(out.c1 - 1.0).max() < 1e-15     # 2 * (1/2)
    assert np.abs(out.c2 - 3.0).max() < 1e-15


def test_tc_determinant(soliton_c05):
    hyd = uv_to_hydro(soliton_c05.profile)
    rho, theta = hyd.c1, hyd.c2
    det = (np.cos(theta) / (2 * np.sqrt(rho)) * np.sqrt(rho) * np.cos(theta)
           + np.sqrt(rho) * np.sin(theta) * np.sin(theta) / (2 * np.sqrt(rho)))
    assert np.abs(det - 0.5).max() < 1e-12


def test_conjugacy_of_quadratic_forms(gp_spec, rng):
    g = GridSpec(1, 40.0, 1024)
    wave = dark_soliton(1.0, g)
    hyd = uv_to_hydro(wave.profile)
    from nlstab.profiles import TravelingWave
    hydro_wave = TravelingWave(1.0, hyd, gp_spec, wave.residual_norm)
    op_m = assemble("Mc", base=hydro_wave, c=1.0, spec=gp_spec)
    op_l = assemble("Lc", base=wave, c=1.0, spec=gp_spec)
    x = g.axis(0)
    window = np.exp(-(x / 30.0) ** 8)
    for _ in range(20):
        f = random_smooth_pair(g, rng)
        f = PairField(g, f.c1 * window, f.c2 * window, "uv")
        qm = quadratic_form(op_m, f)
        ql = 2.0 * quadratic_form(op_l, tc_map(f, hydro_wave))
        assert abs(qm - ql) <= 1e-2 * max(abs(qm), abs(ql))


def test_quadratic_form_zero_and_kernel(gp_spec):
    g = GridSpec(1, 40.0, 32768)
    wave = dark_soliton(0.0, g)
    op = assemble("Lc", base=wave, c=0.0, spec=gp_spec)
    zero = PairField(g, np.zeros(g.shape), np.zeros(g.shape), "uv")
    assert quadratic_form(op, zero) == 0.0
    mode = translation_mode(wave.profile)
    q = quadratic_form(op, mode)
    assert abs(q) <= 1e-6 * inner(mode, mode, "L2")


def test_hydro_second_block_positive(bubble_1d_small, cq02, rng):
    op = assemble("Mc", base=bubble_1d_small, c=0.0, spec=cq02.spec)
    g = bubble_1d_small.grid
    for _ in range(5):
        theta = random_smooth_pair(g, rng).c1
        f = PairField(g, np.zeros(g.shape), theta, "uv")
        assert quadratic_form(op, f) > 0.0


def test_kernel_consistency_invariant(gp_spec):
    for n in (512, 1024):
        g = GridSpec(1, 40.0, n)
        wave = dark_soliton(0.6, g)
        op = assemble("Lc", base=wave, c=0.6, spec=gp_spec)
        mode = translation_mode(wave.profile)
        resid = np.linalg.norm(op.matrix @ mode.ravel())
        assert resid <= 50.0 * g.h[0] ** 2 * np.linalg.norm(mode.ravel())


def test_generalized_kernel_identity(gp_spec):
    from nlstab.operators import ghost_jacobian
    g = GridSpec(1, 40.0, 2048)
    c, dc = 0.8, 1e-3
    wave = dark_soliton(c, g)
    hi = dark_soliton(c + dc, g)
    lo = dark_soliton(c - dc, g)
    c_mode = PairField(g, (hi.profile.c1 - lo.profile.c1) / (2 * dc),
                       (hi.profile.c2 - lo.profile.c2) / (2 * dc), "uv")
    op = assemble("Lc", base=wave, c=c, spec=gp_spec)
    lhs = PairField.from_vector(g, ghost_jacobian(op) @ c_mode.ravel(), "uv")
    rhs = j_apply(translation_mode(wave.profile))   # -J^{-1} d_x1 U
    err = max(np.abs(lhs.c1 - rhs.c1).max(), np.abs(lhs.c2 - rhs.c2).max())
    assert err < 100.0 * (g.h[0] ** 2 + dc ** 2)


def test_coercivity_exact_constant():
    out = coercivity_constant(1.0)
    assert abs(out["a_opt_sq"] - GOLDEN_SPLIT) < 1e-10
    assert abs(out["delta_star"] - (1.0 - GOLDEN_SPLIT)) < 1e-10
    near_zero = coercivity_constant(1e-8)
    assert abs(near_zero["delta_star"] - 1.0) < 1e-7


def test_coercivity_random_fields(gp_spec):
    g = GridSpec(1, 40.0, 512)
    out = coercivity_constant(1.0, grid=g, spec=gp_spec,
                              rng=np.random.default_rng(9))
    assert out["violations"] == 0
    with pytest.raises(ValueError, match="nonlinear law"):
        coercivity_constant(1.0, grid=g)


def test_j_matrices_exact(rng):
    g = GridSpec(1, 40.0, 256)
    f = random_smooth_pair(g, rng)
    jf = j_apply(f)
    assert np.array_equal(jf.c1, f.c2) and np.array_equal(jf.c2, -f.c1)
    back = j_inverse_apply(jf)
    assert np.array_equal(back.c1, f.c1) and np.array_equal(back.c2, f.c2)


def test_gauge_mode_is_annihilated_by_ghost_operators(bubble_1d_small, cq02):
    # a constant phase rotation is an exact symmetry of the edge-closed
    # stencils, in density/phase and in (u, v) unknowns alike; the (u, v)
    # base is the bubble turned by a constant phase, so both parts are live
    amp = np.sqrt(bubble_1d_small.profile.c1)
    turned = PairField(bubble_1d_small.grid, np.cos(0.7) * amp,
                       np.sin(0.7) * amp, "uv")
    for kind, base in (("Mc", bubble_1d_small), ("Lc", turned)):
        op = ghost_symmetrized(assemble(kind, base=base, c=0.0, spec=cq02.spec))
        gauge = op.gauge_mode()
        assert np.linalg.norm(op.matrix @ gauge) <= 1e-10 * np.linalg.norm(gauge)
    assert assemble("A", base=bubble_1d_small, spec=cq02.spec).gauge_mode() is None
