import json
import os
import re

import numpy as np
import pytest
import scipy.linalg

from nlstab import cli, spectra
from nlstab.grid import GridSpec, PairField, norm
from nlstab.nonlinearity import NonlinearitySpec
from nlstab.operators import (assemble, quadratic_form, random_smooth_pair)
from nlstab.profiles import (continue_branch, dark_soliton, stationary_bubble,
                             translation_mode)
from nlstab.spectra import (DichotomyBasis, boundary_mass_fraction,
                            center_positivity_sample, count_below,
                            dichotomy_basis, growth_near, nondegeneracy_check,
                            participation_fraction, sym_spectrum,
                            transversal_band, unstable_mode)
from oracles import ham_spectrum, unstable_pair


@pytest.fixture(scope="module")
def gp_l0_spectrum(gp_spec):
    g = GridSpec(1, 40.0, 1024)
    wave = dark_soliton(0.0, g)
    op = assemble("Lc", base=wave, c=0.0, spec=gp_spec)
    return wave, op, sym_spectrum(op)


@pytest.fixture(scope="module")
def bubble_basis(cq02):
    g = GridSpec(1, 200.0, 1024)
    bubble = stationary_bubble(cq02, "line", g)
    lo = continue_branch(bubble, [-0.01])[0]
    hi = continue_branch(bubble, [0.01])[0]
    branch = [lo, bubble, hi]
    basis = dichotomy_basis(bubble, 0.0, branch, spec=cq02.spec)
    return bubble, branch, basis


def test_poschl_teller_anchor(gp_l0_spectrum):
    _, _, rep = gp_l0_spectrum
    assert abs(rep.eigenvalues[0] + 0.5) < 5e-3
    assert rep.n_negative == 1
    assert rep.kernel_dim == 1


def test_negative_index_stable_under_refinement(gp_spec):
    counts = []
    for n in (512, 1024):
        g = GridSpec(1, 40.0, n)
        wave = dark_soliton(0.3, g)
        op = assemble("Lc", base=wave, c=0.3, spec=gp_spec)
        rep = sym_spectrum(op)
        counts.append((rep.n_negative, rep.kernel_dim))
    assert counts[0] == counts[1] == (1, 1)


def test_scalar_bubble_operator_counts(bubble_1d_small, cq02):
    op = assemble("A", base=bubble_1d_small, spec=cq02.spec)
    rep = sym_spectrum(op)
    assert rep.n_negative == 1
    assert rep.kernel_dim == 1


def test_nondegeneracy_dark_soliton(gp_spec):
    # the 1e-3 projection budget needs the kernel eigenvector resolved to
    # matching accuracy; N = 1024 at L = 40 sits just inside it
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 1024))
    out = nondegeneracy_check(wave, 0.0, gp_spec)
    assert out["verdict"] == "non-degenerate"
    assert out["kernel_dim"] == 1
    assert out["worst_projection_residual"] <= 1e-3


def test_nondegeneracy_broken_base(small_grid, gp_spec, rng):
    wave = dark_soliton(0.7, small_grid)
    noisy = PairField(small_grid,
                      wave.profile.c1 + 1e-2 * rng.standard_normal(small_grid.shape),
                      wave.profile.c2 + 1e-2 * rng.standard_normal(small_grid.shape),
                      "uv")
    from nlstab.profiles import TravelingWave
    broken = TravelingWave(0.7, noisy, gp_spec, 1.0)
    # every eigenvalue lies below the threshold, which is no kernel scale
    with pytest.raises(RuntimeError, match="kernel scale"):
        nondegeneracy_check(broken, 0.7, gp_spec)


@pytest.mark.parametrize("name", ["bubble_1d", "bubble_2d"])
def test_nondegeneracy_catches_a_kernel_off_the_translations(
        name, request, cq02, monkeypatch):
    bubble = request.getfixturevalue(name)
    out = nondegeneracy_check(bubble, 0.0, cq02.spec)
    assert out["verdict"] == "non-degenerate"
    # mutation: once the spectrum is taken, the check is handed the first
    # translation mode rotated 30 degrees towards a localized bump
    # orthogonal to the translations; the kernel count stays, but the
    # kernel vectors leave the span by up to sin(30 degrees) = 0.5
    spectrum = spectra.sym_spectrum

    def rotate_after_spectrum(op):
        report = spectrum(op)
        modes = op.translation_modes()
        basis = np.linalg.qr(np.stack(modes, axis=1))[0]
        r2 = sum(m ** 2 for m in op.grid.meshes()).ravel()
        bump = np.concatenate([np.exp(-r2), np.zeros(op.grid.size)])
        bump -= basis @ (basis.T @ bump)
        turned = (np.cos(np.pi / 6) * basis[:, 0]
                  + np.sin(np.pi / 6) * bump / np.linalg.norm(bump))
        op.translation_modes = lambda: [turned] + modes[1:]
        return report

    monkeypatch.setattr(spectra, "sym_spectrum", rotate_after_spectrum)
    bad = nondegeneracy_check(bubble, 0.0, cq02.spec)
    assert bad["kernel_dim"] == out["kernel_dim"] == bubble.grid.dim
    assert bad["residual_bound"] == out["residual_bound"]
    assert bad["verdict"] == "degenerate/invalid base"


def test_artifact_filter_drops_by_index(gp_spec, monkeypatch):
    # two boundary-concentrated pairs with one bitwise-equal eigenvalue
    # below -thr must both be dropped, and neither counted as negative
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp_spec)
    op = assemble("Lc", base=wave, c=0.0, spec=gp_spec)
    true = sym_spectrum(op)
    thr = op.zero_threshold()
    count = count_below(op, thr)
    w, v = scipy.linalg.eigh(op.matrix.toarray(),
                             subset_by_index=(0, count - 1))
    # replace two box modes inside the kernel window, which the filter
    # drops anyway, so that the count below thr stays the inertia count
    box = [i for i in range(count) if 0.0 < w[i] <= thr][:2]
    assert len(box) == 2
    w[box] = -2.0 * thr
    v[:, box] = 0.0
    v[0, box[0]] = v[-1, box[1]] = 1.0
    order = np.argsort(w, kind="stable")
    monkeypatch.setattr(spectra, "_lowest_pairs",
                        lambda mat, k: (w[order], v[:, order]))
    rep = sym_spectrum(op)
    assert true.n_negative == 1
    assert rep.n_negative == true.n_negative
    assert rep.spurious == true.spurious
    assert not np.any(rep.eigenvalues == -2.0 * thr)
    assert rep.eigenvalues.size == true.eigenvalues.size


def test_spectrally_stable_dark_soliton(soliton_c05, gp_spec):
    rep = ham_spectrum(soliton_c05, 0.5, kind="JLc", spec=gp_spec)
    assert rep.max_real <= 1e-6
    assert rep.pairing_defect <= 1e-8


def test_unstable_rate_block_oracle(bubble_1d_small, cq02):
    rep = ham_spectrum(bubble_1d_small, 0.0, kind="JMc", spec=cq02.spec)
    assert rep.unstable_rate is not None and rep.unstable_rate > 0.0
    op = rep.operator
    n = bubble_1d_small.grid.size
    m1 = op.matrix[:n, :n].toarray()
    m2 = op.matrix[n:, n:].toarray()
    oracle = np.sqrt(-scipy.linalg.eigvals(m2 @ m1).real.min())
    assert abs(rep.unstable_rate - oracle) < 1e-4
    assert rep.pairing_defect <= 1e-8
    # the sparse route, from no guess
    rate, _, defect, _ = unstable_mode(op)
    assert abs(rate - oracle) <= 1e-8 * oracle
    assert defect <= 1e-8


def test_transversal_band_endpoints(gp_spec):
    g = GridSpec(1, 40.0, 1024)
    wave = dark_soliton(0.0, g)
    coarse = dark_soliton(0.0, GridSpec(1, 40.0, 512))
    out = transversal_band(wave, 0.0, gp_spec, n_samples=3, ham_base=coarse,
                           k_outside=[0.9])
    k_lo, k_hi = out["band"]
    assert abs(k_lo) < 1e-6
    assert abs(k_hi - np.sqrt(0.5)) < 1e-2
    lo_adm, hi_adm = out["admissible"]
    assert abs(lo_adm - k_hi / 4.0) < 1e-12 and hi_adm == k_hi
    inside = [s for s in out["samples"] if s["inside"]]
    outside = [s for s in out["samples"] if not s["inside"]]
    assert all(s["growth_rate"] > 0.0 for s in inside)
    assert all(s["max_real"] <= 1e-6 for s in outside)
    assert all(s["n_negative"] == 1 for s in inside)


def test_inband_operator_has_no_kernel(gp_spec):
    g = GridSpec(1, 40.0, 2048)
    wave = dark_soliton(0.0, g)
    sub = assemble("Lc", base=wave, c=0.0, spec=gp_spec, k=0.35)
    rep = sym_spectrum(sub)
    assert rep.n_negative == 1
    assert rep.kernel_dim == 0


def test_no_band_for_positive_operator(bubble_1d_small, cq02):
    # the scalar bubble operator fed through Lc at its own amplitude has
    # lambda0 < 0; fake positivity by shifting instead: use the constant
    # far field, where no negative direction exists
    g = GridSpec(1, 30.0, 512)
    from nlstab.profiles import TravelingWave
    flat = PairField(g, np.full(g.shape, np.sqrt(cq02.rho0)),
                     np.zeros(g.shape), "hydro")
    wave = TravelingWave(0.0, flat, cq02.spec, 0.0)
    out = transversal_band(wave, 0.0, cq02.spec, n_samples=1)
    assert out["band"] is None
    # a flat base has no translation mode: the documented 50 h^2 fallback
    assert out["report"].zero_threshold == 50.0 * g.h[0] ** 2


def test_hamiltonian_quadruple_symmetry(bubble_1d_small, cq02):
    rep = ham_spectrum(bubble_1d_small, 0.0, kind="JMc", spec=cq02.spec)
    w = rep.eigenvalues
    for lam in w[:32]:
        assert np.min(np.abs(w + lam)) <= 1e-8
        assert np.min(np.abs(w - np.conj(lam))) <= 1e-8


def test_dichotomy_mode_degeneracy(bubble_basis):
    _, _, basis = bubble_basis
    assert abs(basis.self_u) <= 1e-8
    assert abs(basis.self_s) <= 1e-8
    assert abs(basis.cross) > 1e-8


def test_dichotomy_projector_completeness(bubble_basis, rng):
    _, _, basis = bubble_basis
    grid = basis.op.grid
    for _ in range(20):
        f = random_smooth_pair(grid, rng)
        a, b, cu, cs, center = basis.split(f)
        rec = (a * basis.t_mode.ravel() + b * basis.c_mode.ravel()
               + cu * basis.w_u.ravel() + cs * basis.w_s.ravel()
               + center.ravel())
        assert np.abs(rec - f.ravel()).max() < 1e-8
        assert basis.center_constraint_residual(center) < 1e-8
        a2, b2, cu2, cs2, _ = basis.split(center)
        assert abs(a2) + abs(b2) + abs(cu2) + abs(cs2) < 1e-8


def test_dichotomy_pairing_matches_momentum_slope(bubble_basis, cq02):
    _, branch, basis = bubble_basis
    from nlstab.functionals import momentum
    dpdc = (momentum(branch[2].profile, "hydro", cq02.spec)
            - momentum(branch[0].profile, "hydro", cq02.spec)) / 0.02
    # Lc is the energy-momentum Hessian: <Lc dcU, dcU> = -dP/dc
    q = quadratic_form(basis.op, PairField.from_vector(
        basis.op.grid, basis.c_mode.ravel(), "uv"))
    assert abs(q - (-dpdc)) <= 0.05 * abs(dpdc)
    assert dpdc < 0.0


def test_hydro_rate_converges_to_the_verdict_rate(cq02):
    # Mc, kept for the paper's hydrodynamic identities, discretizes the
    # same second variation as the verdict operator Lc: on the L=200 line
    # bubble their rates close as h^2 (gaps 2.5e-4, 6.2e-5, 1.5e-5)
    gaps = []
    for n in (1024, 2048, 4096):
        bubble = stationary_bubble(cq02, "line", GridSpec(1, 200.0, n))
        rates = [unstable_mode(assemble(kind, base=bubble, c=0.0,
                                        spec=cq02.spec))[0]
                 for kind in ("Lc", "Mc")]
        gaps.append(abs(rates[0] - rates[1]))
    assert gaps[1] <= gaps[0] / 3.5
    assert 0.0 < gaps[2] <= gaps[1] / 3.5


def test_center_block_positive(bubble_basis):
    _, _, basis = bubble_basis
    violations, values = center_positivity_sample(basis)
    assert violations == 0
    assert min(values) > 0.0


def test_dichotomy_basis_matches_dense_oracle(bubble_basis, cq02):
    bubble, branch, basis = bubble_basis
    rep = ham_spectrum(op=basis.op)
    w_u, w_s = unstable_pair(rep)
    dense = DichotomyBasis(basis.op, rep.unstable_rate, w_u, w_s,
                           basis.t_mode, basis.c_mode)
    assert abs(basis.rate - dense.rate) <= 1e-12 * dense.rate
    # both routes orient modes alike: the signed overlaps are near +1,
    # and each mode's entry of largest magnitude is positive
    assert abs(float(basis.w_u.ravel() @ w_u) - 1.0) <= 1e-8
    assert abs(float(basis.w_s.ravel() @ w_s) - 1.0) <= 1e-8
    for mode in (basis.w_u.ravel(), basis.w_s.ravel()):
        assert mode[np.argmax(np.abs(mode))] > 0.0
    assert abs(basis.cross - dense.cross) <= 1e-8 * abs(dense.cross)
    again = dichotomy_basis(bubble, 0.0, branch, spec=cq02.spec)
    assert again.rate == basis.rate
    for name in ("w_u", "w_s"):
        assert np.array_equal(getattr(again, name).ravel(),
                              getattr(basis, name).ravel())


def test_kernel_is_not_a_growth_rate(bubble_basis, bubble_1d, cq02):
    # J*op scatters its kernel off zero by ~1e-8: near shift 0 nothing
    # but the kernel is listed, and none of it is a rate
    _, _, basis = bubble_basis
    for shift in (0.0, 1e-3, 1e-2):
        assert growth_near(basis.op, shift)[0] is None
    # the ghost-symmetrized operator of the L=30 bubble has no real pair;
    # its kernel must not pass for one
    with pytest.raises(ValueError, match="no unstable mode"):
        dichotomy_basis(bubble_1d, 0.0, [bubble_1d], spec=cq02.spec)


def test_degenerate_pairing_guard(bubble_basis, cq02, monkeypatch):
    bubble, branch, _ = bubble_basis
    monkeypatch.setattr(spectra, "_RATE_FLOOR", 1e6)
    with pytest.raises(ValueError):
        dichotomy_basis(bubble, 0.0, branch, spec=cq02.spec)


def test_no_dense_nonsymmetric_eigensolve_in_src():
    # the dense Hamiltonian eigensolve is a test oracle (tests/oracles.py)
    package = os.path.dirname(spectra.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                calls = re.findall(r"\b(?:eig|eigvals)\s*\(", fh.read())
            assert not calls, name


def test_mode_filters():
    g = GridSpec(1, 40.0, 256)
    edge = np.zeros(g.size * 2)
    edge[:10] = 1.0
    assert boundary_mass_fraction(g, edge) > 0.9
    flat = np.ones(g.size)
    assert participation_fraction(flat) > 0.9
    spike = np.zeros(g.size)
    spike[100:104] = 1.0
    assert participation_fraction(spike) < 0.05


def test_report_serialization(gp_l0_spectrum, tmp_path):
    _, _, rep = gp_l0_spectrum
    path = str(tmp_path / "spectrum.json")
    cli._write_json(path, cli.report_payload(rep))
    with open(path) as fh:
        text = fh.read()
    assert '"n_negative": 1' in text
    assert json.loads(text)["kernel_dim"] == rep.kernel_dim


# ---------------------------------------------------------------------------
# the inertia / shift-invert path against dense oracles

def _dense_sym_spectrum(op, monkeypatch):
    """sym_spectrum classifying every eigenpair of one dense eigh, and
    the whole spectrum.  With no eigenvalue below the kernel threshold,
    sym_spectrum runs no eigensolve and classifies none."""
    w, v = scipy.linalg.eigh(op.matrix.toarray())
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_lowest_pairs", lambda mat, count: (w, v))
        return sym_spectrum(op), w


def _oracle_operators(name, gp_spec, cq02, bubble_1d_small):
    if name.startswith("Lc"):
        c = 0.3 if name == "Lc c=0.3" else 0.0
        wave = dark_soliton(c, GridSpec(1, 40.0, 512), gp_spec)
        if name.startswith("Lc "):
            return assemble("Lc", base=wave, c=c, spec=gp_spec)
        return assemble("Lc", base=wave, c=0.0, spec=gp_spec,
                        k=float(name.split("k=")[1]))
    if name == "A 1D":
        return assemble("A", base=bubble_1d_small, spec=cq02.spec)
    if name == "Mc 1D":
        return assemble("Mc", base=bubble_1d_small, c=0.0, spec=cq02.spec)
    # the smallest 2D grid is 64^2; its scalar bubble operator keeps the
    # dense oracle at 4,096 unknowns
    bubble = stationary_bubble(cq02, "radial-2D", GridSpec(2, 30.0, 64))
    return assemble("A", base=bubble, spec=cq02.spec)


@pytest.mark.parametrize("name", ["Lc c=0", "Lc c=0.3", "LcPlusK2 k=0.35",
                                  "LcPlusK2 k=0.9", "A 1D", "Mc 1D", "A 2D"])
def test_sym_spectrum_matches_dense_oracle(name, gp_spec, cq02,
                                           bubble_1d_small, monkeypatch):
    op = _oracle_operators(name, gp_spec, cq02, bubble_1d_small)
    rep = sym_spectrum(op)
    oracle, full = _dense_sym_spectrum(op, monkeypatch)
    assert rep.n_negative == oracle.n_negative
    assert rep.kernel_dim == oracle.kernel_dim
    assert (rep.eigenvalues.size + rep.spurious
            == count_below(op, op.zero_threshold()))
    head = min(2, rep.eigenvalues.size)
    assert np.all(np.abs(rep.eigenvalues[:head]
                         - oracle.eigenvalues[:head]) <= 1e-9)
    assert rep.spurious <= oracle.spurious
    # the inertia count is Sylvester's: eigenvalues below the shift
    for shift in (-op.zero_threshold(), op.zero_threshold()):
        assert count_below(op, shift) == int(np.sum(full < shift))


@pytest.mark.parametrize("name", ["LcPlusK2 k=0.35", "LcPlusK2 k=0.9"])
def test_sym_spectrum_requests_exactly_the_inertia_count(
        name, gp_spec, cq02, bubble_1d_small, monkeypatch):
    # one eigenvalue below the kernel threshold at k = 0.35, none at 0.9
    requested = {"LcPlusK2 k=0.35": [1], "LcPlusK2 k=0.9": []}[name]
    op = _oracle_operators(name, gp_spec, cq02, bubble_1d_small)
    assert count_below(op, op.zero_threshold()) == len(requested)
    counts = []
    lowest = spectra._lowest_pairs

    def record(mat, count):
        counts.append(count)
        return lowest(mat, count)

    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_lowest_pairs", record)
        rep = sym_spectrum(op)
    assert counts == requested
    oracle, _full = _dense_sym_spectrum(op, monkeypatch)
    assert rep.n_negative == oracle.n_negative
    assert rep.kernel_dim == oracle.kernel_dim


def test_band_without_a_second_eigenvalue_starts_at_zero(gp_spec,
                                                         monkeypatch):
    # a base report holding one eigenvalue below the kernel threshold:
    # lambda1 lies above it, so the band starts at k = 0; the samples
    # read the sweep's own eigensolve, not sym_spectrum
    spectrum = spectra.sym_spectrum

    def base_holds_lambda0_only(op):
        rep = spectrum(op)
        return spectra.SpectralReport(rep.kind, rep.eigenvalues[:1], 1, 0,
                                      [], rep.zero_threshold)

    monkeypatch.setattr(spectra, "sym_spectrum", base_holds_lambda0_only)
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp_spec)
    out = transversal_band(wave, 0.0, gp_spec, n_samples=1, k_outside=[0.9])
    lam0 = out["lambda0"]
    assert lam0 < 0.0
    assert out["lambda1"] is None
    assert out["band"] == (0.0, float(np.sqrt(-lam0)))
    assert [s["n_negative"] for s in out["samples"]] == [1, 0]


def test_sweep_rates_match_dense_hamiltonian(gp_spec):
    # criterion 3's wave numbers in one sweep, the shift continued in k
    ks = [0.05, 0.15, 0.35, 0.45, 0.62, 0.69, 0.9]
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 1024), gp_spec)
    coarse = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp_spec)
    out = transversal_band(wave, 0.0, gp_spec, n_samples=1, ham_base=coarse,
                           k_outside=ks)
    for sample in out["samples"][1:]:
        dense = ham_spectrum(coarse, 0.0, kind="JLcK", spec=gp_spec,
                             k=sample["k"])
        if dense.unstable_rate is None:
            assert sample["growth_rate"] == 0.0
            assert sample["pairing_defect"] is None
        else:
            assert (abs(sample["growth_rate"] - dense.unstable_rate)
                    <= 1e-9 * dense.unstable_rate)
            assert sample["pairing_defect"] <= 1e-8
        assert abs(sample["max_real"] - dense.max_real) <= 1e-9
    assert [s["n_negative"] for s in out["samples"][1:]] == [1] * 6 + [0]


def _sweep(name, gp_spec, cq02):
    """(wave, c, spec, keyword arguments) of one transversal sweep."""
    soliton = dark_soliton(0.0, GridSpec(1, 40.0, 2048), gp_spec)
    coarse = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp_spec)
    if name == "workload":
        return soliton, 0.0, gp_spec, dict(n_samples=5, ham_base=coarse)
    if name == "criterion 3":
        return soliton, 0.0, gp_spec, dict(n_samples=5, ham_base=coarse,
                                           k_outside=[0.9])
    if name == "demo":
        return soliton, 0.0, gp_spec, dict(n_samples=7, ham_base=coarse,
                                           k_outside=[0.8, 0.9])
    if name == "N=512":
        return coarse, 0.0, gp_spec, dict(n_samples=5)
    if name == "c=0.3":
        wave = dark_soliton(0.3, GridSpec(1, 40.0, 1024), gp_spec)
        return wave, 0.3, gp_spec, dict(n_samples=5)
    bubble = stationary_bubble(cq02, "line", GridSpec(1, 30.0, 512))
    return bubble, 0.0, cq02.spec, dict(n_samples=5)


@pytest.mark.parametrize("name", ["workload", "criterion 3", "demo", "N=512",
                                  "c=0.3", "line bubble"])
def test_each_sample_reads_the_shifted_spectrum(name, gp_spec, cq02,
                                                monkeypatch):
    # the sweep's one eigensolve, shifted by k^2 and classified per sample,
    # against a symmetric eigensolve of each Lc + k^2 of its own
    wave, c, spec, kw = _sweep(name, gp_spec, cq02)
    reports = {}
    classified = spectra._classified

    def record(op, w, v):
        rep = classified(op, w, v)
        if op.k is not None:
            reports[op.k] = rep
        return rep

    monkeypatch.setattr(spectra, "_classified", record)
    out = transversal_band(wave, c, spec, **kw)
    monkeypatch.undo()
    ham_base = kw.get("ham_base", wave)
    for sample in out["samples"]:
        rep = reports[sample["k"]]
        own = sym_spectrum(assemble("Lc", base=ham_base, c=c, spec=spec,
                                    k=sample["k"]))
        assert (sample["n_negative"], sample["kernel_dim"]) == (
            rep.n_negative, rep.kernel_dim)
        assert (rep.n_negative, rep.kernel_dim, rep.spurious) == (
            own.n_negative, own.kernel_dim, own.spurious)
        assert rep.eigenvalues.shape == own.eigenvalues.shape
        assert np.all(np.abs(rep.eigenvalues - own.eigenvalues) <= 1e-12)


@pytest.mark.parametrize("n_samples", [1, 5])
def test_one_sweep_makes_one_symmetric_eigensolve(n_samples, gp_spec, cq02,
                                                  monkeypatch):
    # one Lanczos run for the base report and one shared by all samples;
    # an eigensolve per sample makes 6 at 5 samples, and 7 assemblies
    wave, c, spec, kw = _sweep("workload", gp_spec, cq02)
    calls = {"_lowest_pairs": 0, "assemble": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(spectra, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(spectra, name, counted)
    kw["n_samples"] = n_samples
    out = transversal_band(wave, c, spec, **kw)
    assert len(out["samples"]) == n_samples + 1
    assert calls == {"_lowest_pairs": 2, "assemble": 2}


def test_a_sweep_without_wave_numbers_gives_the_band_alone(gp_spec):
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp_spec)
    out = transversal_band(wave, 0.0, gp_spec, n_samples=0, k_outside=[])
    assert out["samples"] == []
    assert out["band"] == (0.0, float(np.sqrt(-out["lambda0"])))


def test_sweep_refuses_a_bound_with_no_kernel_scale(gp_spec):
    # on the 64-point sweep grid the kernel threshold at the smallest k
    # lies above 91 of 128 eigenvalues
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp_spec)
    coarse = dark_soliton(0.0, GridSpec(1, 40.0, 64), gp_spec)
    with pytest.raises(RuntimeError, match="no kernel scale: 91 of 128"):
        transversal_band(wave, 0.0, gp_spec, n_samples=1, ham_base=coarse)


@pytest.mark.parametrize("found", [(None, 0.0, None, None),
                                   (0.1, 0.1, 0.0, None)],
                         ids=["no-rate-with-one-negative",
                              "rate-with-none-negative"])
def test_transversal_ledger_mismatch_raises(gp_spec, monkeypatch, found):
    monkeypatch.setattr(spectra, "growth_near", lambda op, shift: found)
    wave = dark_soliton(0.0, GridSpec(1, 40.0, 512), gp_spec)
    with pytest.raises(RuntimeError, match="index ledger"):
        transversal_band(wave, 0.0, gp_spec, n_samples=1, k_outside=[0.9])
