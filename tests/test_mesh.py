"""Grid geometry, background evaluation, transfer wrappers, stencils, snapshots."""

import struct
import warnings

import numpy as np
import pytest

from vpme import kernels, mesh
from vpme.mesh import GridSpec, ScalarField, VectorField
from vpme.particles import ParticleEnsemble
from vpme.profiles import SpatialProfile

RNG = np.random.default_rng(7)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(half_width=0.0, nodes=16)
    with pytest.raises(ValueError):
        GridSpec(half_width=-1.0, nodes=16)
    with pytest.raises(ValueError):
        GridSpec(half_width=2.0, nodes=7)
    g = GridSpec(half_width=2.0, nodes=9)
    assert g.spacing == pytest.approx(0.5)
    ax = g.axis()
    assert ax[0] == -2.0 and ax[-1] == 2.0
    assert g.cell_volume == pytest.approx(0.125)


def test_field_shape_and_finiteness_checks():
    g = GridSpec(half_width=2.0, nodes=8)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 8, 7)))
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((8, 8, 8)))
    bad = np.zeros((8, 8, 8))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, bad)


def test_evaluate_g_gaussian_unit_mass():
    g = GridSpec(half_width=4.0, nodes=32)
    prof = SpatialProfile(kind="gaussian", scale=0.6)  # tails beyond 6 sigma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = mesh.evaluate_g(prof, g)
    assert abs(field.values.sum() * g.cell_volume - 1.0) < 1e-12
    assert (field.values > 0.0).all()


def test_evaluate_g_warns_when_tails_leave_box():
    # sigma=1 on a half-width-4 box leaves ~2e-4 of mass outside
    g = GridSpec(half_width=4.0, nodes=32)
    prof = SpatialProfile(kind="gaussian", scale=1.0)
    with pytest.warns(RuntimeWarning):
        field = mesh.evaluate_g(prof, g)
    assert abs(field.values.sum() * g.cell_volume - 1.0) < 1e-12


def test_evaluate_g_ball_cell_average():
    g = GridSpec(half_width=2.0, nodes=32)
    prof = SpatialProfile(kind="uniform_ball", scale=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = mesh.evaluate_g(prof, g)
    assert abs(field.values.sum() * g.cell_volume - 1.0) < 1e-12
    peak = 3.0 / (4.0 * np.pi * 0.5**3)
    dist = np.linalg.norm(g.node_coords(), axis=-1)
    deep = dist <= 0.5 - g.spacing
    far = dist >= 0.5 + g.spacing
    shell = (~deep) & (~far) & (np.abs(dist - 0.5) < 0.2 * g.spacing)
    # renormalization rescales by the raw-mass defect, a few 1e-4 here
    assert np.allclose(field.values[deep], field.values[deep].max(), rtol=1e-12)
    assert field.values[deep].max() == pytest.approx(peak, rel=1e-3)
    assert (field.values[far] == 0.0).all()
    inside_frac = field.values[shell] / field.values[deep].max()
    assert (inside_frac > 0.0).all() and (inside_frac < 1.0).all()


def test_evaluate_g_rejects_a_profile_with_no_mass_on_the_grid():
    g = GridSpec(half_width=2.0, nodes=16)
    far = SpatialProfile(kind="uniform_ball", scale=0.5, center=(50.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="no mass on the grid"):
        mesh.evaluate_g(far, g)


def test_deposit_density_tracks_escaped_mass():
    g = GridSpec(half_width=2.0, nodes=12)
    pos = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [5.0, 0.0, 0.0]])
    ens = ParticleEnsemble(
        positions=pos, velocities=np.zeros_like(pos), weights=np.array([0.5, 0.3, 0.2])
    )
    cic = kernels.cic_setup(ens.positions, g.origin, g.spacing, g.nodes)
    rho = mesh.deposit_density(ens, g, cic)
    assert ens.escaped_mass == pytest.approx(0.2, abs=1e-15)
    assert rho.values.sum() * g.cell_volume == pytest.approx(0.8, abs=1e-14)


def test_gradient_exact_for_quadratics():
    g = GridSpec(half_width=1.5, nodes=14)
    c = g.node_coords()
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    u = x**2 + 2.0 * y**2 - z**2 + x * y
    grad = mesh.gradient(ScalarField(g, u))
    assert np.allclose(grad[..., 0], 2.0 * x + y, atol=1e-11)
    assert np.allclose(grad[..., 1], 4.0 * y + x, atol=1e-11)
    assert np.allclose(grad[..., 2], -2.0 * z, atol=1e-11)


def test_divergence_exact_for_quadratics():
    g = GridSpec(half_width=1.5, nodes=14)
    c = g.node_coords()
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    vec = np.stack([x * y, y * z, z**2], axis=-1)
    div = mesh.divergence(VectorField(g, vec))
    assert np.allclose(div, y + z + 2.0 * z, atol=1e-11)


def test_snapshot_round_trip(tmp_path):
    g = GridSpec(half_width=2.0, nodes=9)
    scal = ScalarField(g, RNG.standard_normal((9, 9, 9)))
    vec = VectorField(g, RNG.standard_normal((9, 9, 9, 3)))
    for name, field in (("u", scal), ("e", vec)):
        path = tmp_path / f"{name}.field"
        mesh.write_field(path, name, field)
        back_name, back = mesh.read_field(path)
        assert back_name == name
        assert back.grid == g
        assert (back.values == field.values).all()


def test_snapshot_data_is_the_c_order_bytes_of_the_values(tmp_path):
    # written in runs of first-axis planes, the data are still the whole
    # array's little-endian C-order bytes, for E's component-major view too
    n = 41
    g = GridSpec(half_width=2.0, nodes=n)
    scal = ScalarField(g, RNG.standard_normal((n, n, n)))
    vec = VectorField(g, RNG.standard_normal((n, n, n, 3)))
    # both fields take several runs of planes and a shorter last one
    for plane_bytes in (8 * n * n, 24 * n * n):
        assert 1 < mesh.SNAPSHOT_CHUNK // plane_bytes < n
        assert n % (mesh.SNAPSHOT_CHUNK // plane_bytes)
    assert not vec.values.flags.c_contiguous
    for name, field in (("u", scal), ("e", vec)):
        path = tmp_path / f"{name}.field"
        mesh.write_field(path, name, field)
        data = np.asarray(field.values, "<f8").tobytes(order="C")
        raw = path.read_bytes()
        assert raw[-len(data):] == data
        assert len(raw) == len(mesh.SNAPSHOT_MAGIC) + 4 + len(name) + 24 + len(data)


def test_snapshot_rejects_bad_magic_and_truncation(tmp_path):
    g = GridSpec(half_width=2.0, nodes=9)
    path = tmp_path / "u.field"
    mesh.write_field(path, "u", ScalarField(g, np.ones((9, 9, 9))))
    raw = path.read_bytes()
    bad = tmp_path / "bad.field"
    bad.write_bytes(b"NOTAFILE" + raw[8:])
    with pytest.raises(ValueError, match="magic"):
        mesh.read_field(bad)
    short = tmp_path / "short.field"
    short.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(ValueError, match="truncated"):
        mesh.read_field(short)


def test_snapshot_rejects_inconsistent_header_spacing(tmp_path):
    g = GridSpec(half_width=2.0, nodes=9)
    path = tmp_path / "u.field"
    mesh.write_field(path, "u", ScalarField(g, np.ones((9, 9, 9))))
    raw = bytearray(path.read_bytes())
    # magic, name length, name "u", nodes, half_width, then the spacing
    at = len(mesh.SNAPSHOT_MAGIC) + 4 + 1 + 4 + 8
    assert struct.unpack_from("<d", raw, at)[0] == g.spacing
    struct.pack_into("<d", raw, at, 2.0 * g.spacing)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="header spacing"):
        mesh.read_field(path)
