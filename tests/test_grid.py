import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlstab.grid import (GridSpec, PairField, ScalarField, chi_multiplier,
                         inner, load_binary, norm, save_binary, save_csv,
                         uv_to_hydro, hydro_to_uv)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 40.0, 100)       # not a power of two
    with pytest.raises(ValueError):
        GridSpec(1, 40.0, 32)        # too few points
    with pytest.raises(ValueError):
        GridSpec(3, 40.0, 128)       # dimension


def test_axis_contains_origin():
    g = GridSpec(1, 40.0, 256)
    assert 0.0 in g.axis(0)
    assert abs(g.h[0] - 80.0 / 256) < 1e-15


def _d1(grid, data, axis=0):
    return grid.central(axis, "edge") @ data.ravel()


def _d2(grid, data):
    return -(grid.neg_laplacian("edge") @ data.ravel())


def test_diff_constant_is_zero():
    for boundary in ("truncated", "periodic"):
        g = GridSpec(1, 40.0, 256, boundary)
        f = np.full(g.shape, 3.7)
        assert np.abs(_d1(g, f)).max() < 1e-12
        assert np.abs(_d2(g, f)).max() < 1e-12


def test_diff_periodic_sine_second_derivative():
    g = GridSpec(1, 40.0, 512, "periodic")
    x = g.axis(0)
    L = g.half_length[0]
    d2 = _d2(g, np.sin(np.pi * x / L))
    exact = -(np.pi / L) ** 2 * np.sin(np.pi * x / L)
    assert np.abs(d2 - exact).max() < 0.5 * g.h[0] ** 2


def test_diff_tanh_at_origin():
    g = GridSpec(1, 40.0, 1024)
    x = g.axis(0)
    d1 = _d1(g, np.tanh(x / np.sqrt(2.0)))
    i0 = np.argmin(np.abs(x))
    assert abs(d1[i0] - 1.0 / np.sqrt(2.0)) < 0.5 * g.h[0] ** 2


def test_diff_twice_matches_second_order():
    g = GridSpec(1, 30.0, 512, "periodic")
    x = g.axis(0)
    f = np.exp(np.sin(np.pi * x / 30.0))
    twice = _d1(g, _d1(g, f))
    assert np.abs(twice - _d2(g, f)).max() < 5.0 * g.h[0] ** 2


def test_chi_multiplier_mode_selection():
    g = GridSpec(1, 40.0, 512, "periodic")
    x = g.axis(0)
    zero = chi_multiplier(ScalarField(g, np.zeros(g.shape)))
    assert np.abs(zero.data).max() == 0.0
    # |xi| = pi*k/L: k=8 gives xi ~ 0.628 <= 1, k=40 gives 3.14 >= 2
    low = ScalarField(g, np.cos(8 * np.pi * x / 40.0))
    high = ScalarField(g, np.cos(40 * np.pi * x / 40.0))
    assert np.abs(chi_multiplier(low).data - low.data).max() < 1e-12
    assert np.abs(chi_multiplier(high).data).max() < 1e-12
    # idempotent where the symbol is 0 or 1
    assert np.abs(chi_multiplier(chi_multiplier(low)).data - low.data).max() < 1e-12


def test_chi_multiplier_self_adjoint(rng):
    g = GridSpec(1, 40.0, 256, "periodic")
    f = ScalarField(g, rng.standard_normal(g.shape))
    h = ScalarField(g, rng.standard_normal(g.shape))
    vol = g.cell_volume
    lhs = float(np.sum(chi_multiplier(f).data * h.data)) * vol
    rhs = float(np.sum(f.data * chi_multiplier(h).data)) * vol
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_inner_constant_field():
    g = GridSpec(1, 40.0, 256)
    f = PairField(g, np.ones(g.shape), np.zeros(g.shape), "uv")
    assert abs(inner(f, f, "L2") - 80.0) < 1e-12


def test_inner_gaussian_oracle():
    g = GridSpec(1, 40.0, 2048)
    x = g.axis(0)
    f = PairField(g, np.exp(-x ** 2), 0.5 * np.exp(-2.0 * x ** 2), "uv")
    exact = np.sqrt(np.pi / 2.0) + 0.25 * np.sqrt(np.pi / 4.0)
    assert abs(inner(f, f, "L2") - exact) < 1e-8


def test_norm_translation_invariance(rng):
    g = GridSpec(1, 40.0, 256, "periodic")
    data1 = rng.standard_normal(g.shape)
    data2 = rng.standard_normal(g.shape)
    f = PairField(g, data1, data2, "uv")
    shifted = PairField(g, np.roll(data1, 17), np.roll(data2, 17), "uv")
    for kind in ("L2", "H1xHdot1"):
        assert abs(norm(f, kind) - norm(shifted, kind)) < 1e-12


def test_hydro_representation_positive():
    g = GridSpec(1, 40.0, 256)
    with pytest.raises(ValueError):
        PairField(g, -np.ones(g.shape), np.zeros(g.shape), "hydro")


def test_hydro_round_trip():
    g = GridSpec(1, 40.0, 256)
    x = g.axis(0)
    rho = 1.0 + 0.3 * np.exp(-x ** 2)
    theta = 0.2 * np.tanh(x / 3.0)
    f = PairField(g, rho, theta, "hydro")
    back = uv_to_hydro(hydro_to_uv(f))
    assert np.abs(back.c1 - rho).max() < 1e-12
    assert np.abs(back.c2 - theta).max() < 1e-12


def test_binary_round_trip(tmp_path):
    g = GridSpec(2, (20.0, 25.0), (64, 128))
    rng = np.random.default_rng(0)
    f = PairField(g, rng.standard_normal(g.shape),
                  rng.standard_normal(g.shape), "uv")
    path = tmp_path / "field.bin"
    save_binary(f, path)
    back = load_binary(path)
    assert back.rep == "uv"
    assert back.grid.compatible(g)
    assert np.array_equal(back.c1, f.c1) and np.array_equal(back.c2, f.c2)


def test_binary_round_trip_keeps_periodic_boundary(tmp_path):
    g = GridSpec(1, 20.0, 64, "periodic")
    x = g.axis(0)
    f = PairField(g, np.cos(np.pi * x / 20.0), np.sin(np.pi * x / 20.0), "uv")
    path = tmp_path / "field.bin"
    save_binary(f, path)
    assert path.read_bytes()[4] == 2          # format version
    back = load_binary(path)
    assert back.grid.boundary == "periodic"
    assert np.array_equal(back.c1, f.c1) and np.array_equal(back.c2, f.c2)


def test_version_1_dump_loads_truncated(tmp_path):
    data = np.arange(128, dtype="<f8")
    path = tmp_path / "v1.bin"
    path.write_bytes(_header() + data.tobytes())
    back = load_binary(path)
    assert back.grid.boundary == "truncated"
    assert np.array_equal(back.c1, data[:64]) and np.array_equal(back.c2,
                                                                 data[64:])


@st.composite
def _fields(draw):
    dim = draw(st.sampled_from((1, 2)))
    n = tuple(draw(st.sampled_from((64, 128))) for _ in range(dim))
    half = tuple(draw(st.floats(1.0, 100.0)) for _ in range(dim))
    g = GridSpec(dim, half, n, draw(st.sampled_from(("truncated",
                                                     "periodic"))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rep = draw(st.sampled_from(("scalar", "w", "uv", "hydro")))
    if rep == "scalar":
        return ScalarField(g, rng.standard_normal(g.shape))
    # a density must stay positive
    c1 = rng.standard_normal(g.shape)
    return PairField(g, np.exp(c1) if rep == "hydro" else c1,
                     rng.standard_normal(g.shape), rep)


def _components(field):
    if isinstance(field, ScalarField):
        return [field.data]
    return [field.c1, field.c2]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fields())
def test_binary_round_trip_property(tmp_path, field):
    path = tmp_path / "field.bin"
    save_binary(field, path)
    back = load_binary(path)
    assert type(back) is type(field)
    assert getattr(back, "rep", None) == getattr(field, "rep", None)
    for attr in ("dim", "n", "half_length", "boundary"):
        assert getattr(back.grid, attr) == getattr(field.grid, attr)
    for got, want in zip(_components(back), _components(field)):
        assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fields(), st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_dump_is_rejected_property(tmp_path, field, keep):
    path = tmp_path / "field.bin"
    save_binary(field, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:int(keep * len(blob))])
    with pytest.raises(ValueError):
        load_binary(path)


def _header(ver=1, dim=1, tag=2, ncomp=2):
    return struct.pack("<4sBBBBIIdd", b"NLSF", ver, dim, tag, ncomp,
                       64, 0, 20.0, 0.0)


@pytest.mark.parametrize("blob, message", [
    (_header()[:20], "header"),
    (b"XXXX" + _header()[4:] + bytes(1024), "magic"),
    (_header(ver=3) + bytes(1024), "version"),
    (_header(tag=9) + bytes(1024), "tag code"),
    (_header(dim=3) + bytes(1024), "dim"),
    (_header(tag=0, ncomp=2) + bytes(1024), "components"),
    (_header(ncomp=1) + bytes(512), "components"),
    (_header() + bytes(1016), "payload"),
    (_header() + bytes(1032), "payload"),
], ids=["short-header", "magic", "version", "tag", "dim", "scalar-ncomp",
        "pair-ncomp", "short-payload", "trailing-bytes"])
def test_load_binary_rejects_malformed(tmp_path, blob, message):
    # 64 points x 2 components x 8 bytes = 1024 payload bytes
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=message):
        load_binary(path)


def test_csv_dump(tmp_path):
    g = GridSpec(1, 40.0, 64)
    f = PairField(g, np.ones(g.shape), np.zeros(g.shape), "uv")
    path = tmp_path / "field.csv"
    save_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,comp1,comp2"
    assert len(lines) == 65


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=255))
def test_inner_symmetry_property(seed):
    g = GridSpec(1, 20.0, 64, "periodic")
    r = np.random.default_rng(seed)
    f = PairField(g, r.standard_normal(g.shape), r.standard_normal(g.shape), "uv")
    h = PairField(g, r.standard_normal(g.shape), r.standard_normal(g.shape), "uv")
    assert inner(f, f, "L2") >= 0.0
    assert abs(inner(f, h, "L2") - inner(h, f, "L2")) < 1e-12
    assert abs(inner(f, h, "H1xHdot1") - inner(h, f, "H1xHdot1")) < 1e-10
