"""Energy split, continuity defect, accumulator bookkeeping, table schema."""

import warnings

import numpy as np
import pytest

from vpme import diagnostics, fieldsolve, mesh, runner
from vpme.diagnostics import DiagnosticsAccumulator, SchemaError
from vpme.mesh import GridSpec, ScalarField, VectorField, evaluate_g
from vpme.particles import ParticleEnsemble
from vpme.profiles import SpatialProfile

from conftest import load_run, small_scenario

GRID = GridSpec(half_width=2.0, nodes=16)


def _g(scale=0.5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return evaluate_g(SpatialProfile(kind="gaussian", scale=scale), GRID)


def _cold(n=4):
    rng = np.random.default_rng(11)
    return ParticleEnsemble(
        positions=0.5 * rng.standard_normal((n, 3)),
        velocities=np.zeros((n, 3)),
        weights=np.full(n, 1.0 / n),
    )


def _energy(ens, sol, g):
    v2 = (ens.velocities**2).sum(axis=1)
    e2 = (sol.e.values**2).sum(axis=-1)
    return diagnostics.energy(ens.weights, v2, sol, g, np.exp(sol.u.values), e2)


def _field_row(t, sol, g):
    e2 = (sol.e.values**2).sum(axis=-1)
    row = diagnostics.field_table_row(t, sol, e2, g.values * np.exp(sol.u.values))
    assert len(row) == len(diagnostics.FIELD_COLUMNS)
    return dict(zip(diagnostics.FIELD_COLUMNS, row))


def test_energy_of_cold_ensemble_in_zero_potential():
    # U = 0: electron term is 2 * (0 - 1) * int g = -2 for unit background mass
    g = _g()
    sol = fieldsolve.zero_solution(GRID, 0.5)
    kin, fld, ele, tot = _energy(_cold(), sol, g)
    assert kin == 0.0
    assert fld == 0.0
    assert ele == pytest.approx(-2.0, abs=1e-12)
    assert tot == pytest.approx(-2.0, abs=1e-12)


def test_kinetic_energy_is_weighted_speed_square():
    g = _g()
    sol = fieldsolve.zero_solution(GRID, 0.5)
    ens = ParticleEnsemble(
        positions=np.zeros((2, 3)),
        velocities=np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 3.0]]),
        weights=np.array([0.25, 0.5]),
    )
    kin, _, _, _ = _energy(ens, sol, g)
    assert kin == pytest.approx(0.25 * 5.0 + 0.5 * 9.0, abs=1e-14)


def test_continuity_residual_zero_for_static_divergence_free_state():
    rho = _g()
    j = VectorField(GRID, np.zeros((16, 16, 16, 3)))
    assert diagnostics.continuity_residual(rho, rho, j, 0.01) == 0.0


def test_continuity_residual_grid_mismatch():
    rho = _g()
    other = GridSpec(half_width=2.0, nodes=8)
    j = VectorField(other, np.zeros((8, 8, 8, 3)))
    with pytest.raises(ValueError, match="one grid"):
        diagnostics.continuity_residual(rho, rho, j, 0.01)


def test_continuity_residual_measures_defect():
    # rho jumps by a bump while j = 0: residual is ||bump||_2 / dt
    rho0 = _g()
    bump = np.zeros((16, 16, 16))
    bump[8, 8, 8] = 1e-3
    rho1 = ScalarField(GRID, rho0.values + bump)
    j = VectorField(GRID, np.zeros((16, 16, 16, 3)))
    expect = 1e-3 / 0.01 * GRID.cell_volume**0.5
    assert diagnostics.continuity_residual(rho0, rho1, j, 0.01) == pytest.approx(expect)


def test_accumulator_running_suprema_and_rows():
    g = _g()
    sol = fieldsolve.zero_solution(GRID, 0.5)
    acc = DiagnosticsAccumulator(m1=2.5)
    ens = _cold()
    rho = _g()
    for i, speed in enumerate((1.0, 3.0, 2.0)):
        ens.velocities[:, 0] = speed
        acc.record(float(i), ens, sol, g, rho, 0.0)
    rows = acc.rows()
    assert len(rows) == 3
    m2 = [r[diagnostics.COLUMNS.index("m2")] for r in rows]
    mk2 = [r[diagnostics.COLUMNS.index("Mk2")] for r in rows]
    # running sup holds the peak after the instantaneous moment drops
    assert m2[1] > m2[2]
    assert mk2 == [m2[0], m2[1], m2[1]]
    assert all(b >= a for a, b in zip(mk2, mk2[1:]))
    k_index = diagnostics.COLUMNS.index("mk_m1")
    assert rows[0][k_index] == pytest.approx(1.0)  # unit weights, |v| = 1


def test_timeseries_round_trip_and_integer_columns(tmp_path):
    g = _g()
    sol = fieldsolve.zero_solution(GRID, 0.5)
    acc = DiagnosticsAccumulator(m1=2.5)
    ens = _cold()
    acc.record(0.0, ens, sol, g, _g(), 0.0)
    acc.record(0.1, ens, sol, g, _g(), 1.234e-5)
    path = tmp_path / "timeseries.csv"
    diagnostics.write_timeseries(path, acc)

    table = diagnostics.read_timeseries(path)
    assert list(table) == diagnostics.COLUMNS
    assert table["t"].tolist() == [0.0, 0.1]
    assert table["continuity_res"][1] == 1.234e-5  # repr round-trips exactly

    # newton iteration counts are written as bare integers
    lines = path.read_text().splitlines()
    cell = lines[1].split(",")[diagnostics.COLUMNS.index("newton_iters")]
    assert cell == "0"

    # identical rows serialize byte-identically
    twin = tmp_path / "again.csv"
    diagnostics.write_timeseries(twin, acc)
    assert twin.read_bytes() == path.read_bytes()


def test_read_table_schema_errors(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        diagnostics.read_table(p, ["a", "b"])
    p.write_text("a,b\n")
    with pytest.raises(SchemaError, match="no rows"):
        diagnostics.read_table(p, ["a", "b"])
    p.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(SchemaError, match="does not match expected"):
        diagnostics.read_table(p, ["a", "c"])
    p.write_text("a,b\n1.0\n")
    with pytest.raises(SchemaError, match="expected 2 fields"):
        diagnostics.read_table(p, ["a", "b"])
    p.write_text("a,b\n1.0,pear\n")
    with pytest.raises(SchemaError, match="non-numeric"):
        diagnostics.read_table(p, ["a", "b"])


def test_write_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(SchemaError, match="row width"):
        diagnostics.write_table(tmp_path / "r.csv", ["a", "b"], [[1.0, 2.0, 3.0]])


def test_field_table_row_for_zero_solution():
    g = _g()
    sol = fieldsolve.zero_solution(GRID, 0.5)
    named = _field_row(0.25, sol, g)
    assert named["t"] == 0.25
    assert named["e_sup"] == 0.0 and named["ehat_sup"] == 0.0
    assert named["uhat_max"] == 0.0
    assert named["geU_L1"] == pytest.approx(1.0, abs=1e-12)  # e^0 g integrates to 1
    assert named["geU_Linf"] == pytest.approx(float(g.values.max()))
    # a zero background has zero electron density in every norm
    dark = _field_row(0.25, sol, ScalarField(GRID, np.zeros((16, 16, 16))))
    assert [dark[f"geU_{k}"] for k in ("L1", "L2", "L3", "Linf")] == [0.0, 0.0, 0.0, 0.0]


def test_field_table_matches_recomputation_from_snapshots(tmp_path):
    cfg = small_scenario(save_fields=True)
    runner.run(cfg, tmp_path)
    run = load_run(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = evaluate_g(cfg.g_profile, cfg.grid).values
    h, vol = cfg.grid.spacing, cfg.grid.cell_volume
    steps = np.rint(run.fields["t"] / cfg.time.dt).astype(int)
    assert steps.tolist() == list(range(cfg.time.steps + 1))
    for i, n in enumerate(steps):
        snap = {
            name: mesh.read_field(tmp_path / "snapshots" / f"step_{n:06d}_{name}.field")[1].values
            for name in ("u", "uhat", "e")
        }
        geu = g * np.exp(snap["u"])
        ehat2 = sum(d**2 for d in np.gradient(snap["uhat"], h, edge_order=2))
        expect = {
            "e_sup": np.sqrt((snap["e"] ** 2).sum(axis=-1).max()),
            "ehat_sup": np.sqrt(ehat2.max()),
            "uhat_max": snap["uhat"].max(),
            "geU_L1": geu.sum() * vol,
            "geU_L2": np.sqrt((geu**2).sum() * vol),
            "geU_L3": np.cbrt((geu**3).sum() * vol),
            "geU_Linf": geu.max(),
        }
        for name, value in expect.items():
            assert run.fields[name][i] == pytest.approx(value, rel=1e-12, abs=0.0), (n, name)
        assert run.series["electron_L1"][i] == run.fields["geU_L1"][i]
