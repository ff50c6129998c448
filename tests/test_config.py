"""Scenario files, canonical echo, run artifacts, CLI exit codes."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vpme import cli, diagnostics, fieldsolve, kernels, mesh, particles, pusher, runner
from vpme.config import ConfigError, load_config
from vpme.mesh import GridSpec
from vpme.particles import InitialDistributionSpec
from vpme.profiles import SpatialProfile
from vpme.pusher import TimeSpec

from conftest import make_scenario, small_scenario

NARROW = SpatialProfile(kind="gaussian", scale=0.5, center=(0.0, 0.0, 0.0))

GOOD_INI = """\
[grid]
half_width = 2.0
nodes = 16

[field]
epsilon = 0.8

[time]
dt = 0.01
t_end = 0.05
checkpoint_every = 1

[particles]
kind = power-law-decay
count = 500
profile = gaussian
profile_scale = 0.5
r = 4.0
v_max = 20.0

[background]
profile = gaussian
profile_scale = 0.5

[run]
seed = 7
"""


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_config_defaults_and_aliases(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_INI))
    assert cfg.init.kind == "power_law"  # alias resolved
    assert cfg.field_mode == "selfconsistent"
    assert cfg.seed == 7
    assert cfg.omega == 0.25
    assert cfg.max_escaped_frac == 1e-3
    assert cfg.save_fields is False
    assert cfg.drift == (0.0, 0.0, 0.0)


def test_canonical_text_round_trips_to_same_hash(tmp_path):
    cfg = load_config(_write(tmp_path, GOOD_INI))
    echoed = load_config(_write(tmp_path, cfg.canonical_text(), name="echo.ini"))
    assert echoed == cfg
    assert echoed.scenario_hash() == cfg.scenario_hash()
    assert len(cfg.scenario_hash()) == 64
    assert cfg.with_epsilon(0.5).scenario_hash() != cfg.scenario_hash()


def test_cold_lattice_canonical_round_trip(tmp_path):
    cfg = make_scenario(count=0, init=InitialDistributionSpec(kind="cold_lattice"))
    echoed = load_config(_write(tmp_path, cfg.canonical_text()))
    assert echoed.scenario_hash() == cfg.scenario_hash()


@pytest.mark.parametrize(
    "mangle, message",
    [
        (("[grid]", "[lattice]"), "missing required key"),
        (("nodes = 16", "nodes = pear"), "nodes"),
        (("epsilon = 0.8", "epsilon = 1.5"), "epsilon must lie"),
        (("epsilon = 0.8", "epsilon = 0.8\nmode = magnetic"), "field mode"),
        (("kind = power-law-decay", "kind = thermal"), "unknown kind"),
        (("count = 500", "count = 0"), "count"),
        (("seed = 7", "seed = 7\nomega = 1.25"), "omega"),
        (("seed = 7", "seed = 7\nmax_escaped_frac = 2.0"), "max_escaped_frac"),
        (("r = 4.0", "r = 2.5"), "exceed 3"),
        (("dt = 0.01", "dt = -0.01"), "dt must be positive"),
        (("count = 500", "count = 500\ndrift = nan 0 0"), "drift must be 3 finite"),
        (("count = 500", "count = 500\nprofile_center = 0 zero 0"), "could not convert"),
        (("[background]\nprofile = gaussian", "[background]\nprofile = cube"), "profile kind"),
        (("count = 500", "count = 500\nprofile_center = nan 0 0"), "center must be finite"),
        (("\n[run]", "profile_center = inf 0 0\n[run]"), "center must be finite"),  # background
        (("dt = 0.01\n", ""), r"^\[time\] is missing required key 'dt'$"),
        (
            ("[background]\nprofile = gaussian\nprofile_scale = 0.5\n", ""),
            r"^\[background\] is missing required key 'profile'$",
        ),
        (
            ("[background]\nprofile = gaussian\nprofile_scale = 0.5", "[background]\nprofile = gaussian"),
            r"^\[background\] is missing required key 'profile_scale'$",
        ),
        (
            ("checkpoint_every = 1", "checkpoint_every = 1.5"),
            r"^\[time\] checkpoint_every: invalid literal for int\(\) with base 10: '1\.5'$",
        ),
        (("seed = 7", "seed = 7\nomega = x"), r"^\[run\] omega: could not convert string to float: 'x'$"),
        (
            ("count = 500", "count = 500\nprofile_center = 1 2"),
            r"^\[particles\] profile_center: expected 3 components, got '1 2'$",
        ),
    ],
)
def test_load_config_rejects(tmp_path, mangle, message):
    broken = GOOD_INI.replace(*mangle)
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, broken))


def test_save_fields_round_trips_through_the_canonical_text(tmp_path):
    cfg = small_scenario(save_fields=True)
    echoed = load_config(_write(tmp_path, cfg.canonical_text()))
    assert echoed.save_fields is True
    assert echoed == cfg


def test_load_config_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(_write(tmp_path, "nodes = 16\n"))  # key before any section
    with pytest.raises(ConfigError, match="not a boolean"):
        load_config(
            _write(tmp_path, GOOD_INI + "\n[diagnostics]\nsave_fields = maybe\n")
        )
    with pytest.raises(ConfigError, match="expected 3 components"):
        load_config(_write(tmp_path, GOOD_INI.replace("count = 500", "count = 500\ndrift = 1 2")))


def test_same_seed_runs_are_byte_identical(tmp_path):
    cfg = small_scenario()
    a = runner.run(cfg, tmp_path / "a")
    b = runner.run(cfg, tmp_path / "b")
    assert (a / runner.TIMESERIES_NAME).read_bytes() == (b / runner.TIMESERIES_NAME).read_bytes()
    assert (a / runner.FIELD_TABLE_NAME).read_bytes() == (b / runner.FIELD_TABLE_NAME).read_bytes()
    meta_a = json.loads((a / runner.META_NAME).read_text())
    meta_b = json.loads((b / runner.META_NAME).read_text())
    assert meta_a["scenario_hash"] == meta_b["scenario_hash"]


def test_particle_block_size_moves_no_output(tmp_path, monkeypatch):
    # 2000 ions fit in one default block and take 8 blocks of 257; on the
    # narrower box 18 ions start outside it (1 on the wider), so escaped rows
    # straddle the blocks
    default = kernels.BLOCK
    for half_width in (4.0, 3.0):
        cfg = small_scenario(save_fields=True, grid=GridSpec(half_width=half_width, nodes=16))
        runs = []
        for block in (default, 257):
            monkeypatch.setattr(kernels, "BLOCK", block)
            runs.append(runner.run(cfg, tmp_path / f"{half_width}-{block}"))
        a, b = runs
        names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert any(n.parts[0] == "snapshots" for n in names)
        for name in names:
            if name.name != runner.META_NAME:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_one_cic_setup_per_ion_position_per_step(tmp_path, monkeypatch):
    # the one setup is built at t = 0; each step's closing pass refills it in
    # place with the drifted positions (shared by the closing gather, the
    # deposit and the next opening gather), and on each checkpoint step after
    # t = 0 the opening pass first refills it with the half-step positions
    # for the current deposit, one row per ion each
    calls, filled = [], []
    setup, fill = kernels.cic_setup, kernels.fill_setup

    def counted(*args):
        calls.append(args[0].shape)
        return setup(*args)

    def counted_fill(pos, *args):
        filled.append(pos.shape[0])
        return fill(pos, *args)

    monkeypatch.setattr(kernels, "cic_setup", counted)
    monkeypatch.setattr(kernels, "fill_setup", counted_fill)
    cfg = small_scenario(time=TimeSpec(dt=0.01, t_end=0.05, checkpoint_every=2))
    runner.run(cfg, tmp_path / "run")
    steps, checkpoints_after_t0 = 5, 3  # checkpoints at steps 2, 4 and 5
    assert calls == [(cfg.count, 3)]
    # cic_setup fills its new setup through fill_setup too
    assert sum(filled) == (1 + steps + checkpoints_after_t0) * cfg.count


def test_midpoint_outputs_only_on_checkpoint_steps(tmp_path, monkeypatch):
    asked, deposited = [], []
    step, current = pusher.step, mesh.current_from_arrays

    def counted_step(*args, midpoint=False, **kwargs):
        asked.append(midpoint)
        return step(*args, midpoint=midpoint, **kwargs)

    def counted_current(cic, *args):
        deposited.append([a.shape[0] for a in cic])
        return current(cic, *args)

    monkeypatch.setattr(pusher, "step", counted_step)
    monkeypatch.setattr(mesh, "current_from_arrays", counted_current)
    cfg = small_scenario(time=TimeSpec(dt=0.01, t_end=0.05, checkpoint_every=2))
    runner.run(cfg, tmp_path / "run")
    # checkpoints at steps 2, 4 and 5
    assert asked == [False, True, False, True, True]
    assert deposited == [[cfg.count] * 3] * 3


def test_seed_override_changes_the_series(tmp_path):
    cfg = small_scenario()
    a = runner.run(cfg, tmp_path / "a")
    b = runner.run(cfg, tmp_path / "b", seed=999)
    assert (a / runner.TIMESERIES_NAME).read_bytes() != (b / runner.TIMESERIES_NAME).read_bytes()
    assert json.loads((b / runner.META_NAME).read_text())["seed"] == 999


def test_escaped_mass_gate_persists_then_raises(tmp_path):
    # narrow spatial profile (nothing outside at t=0), hot velocities: the
    # gate trips mid-run after some checkpoints have been recorded
    cfg = small_scenario(
        grid=GridSpec(half_width=2.0, nodes=16),
        time=TimeSpec(dt=0.05, t_end=1.0, checkpoint_every=1),
        init=InitialDistributionSpec(kind="maxwellian", spatial=NARROW, sigma=3.0),
        g_profile=NARROW,
        max_escaped_frac=0.01,
    )
    out = tmp_path / "gated"
    with pytest.raises(runner.EscapedMassError, match="exceeds gate"):
        runner.run(cfg, out)
    meta = json.loads((out / runner.META_NAME).read_text())
    assert meta["status"] == "escaped-mass-gate"
    assert "exceeds gate" in meta["error"]
    series = diagnostics.read_timeseries(out / runner.TIMESERIES_NAME)
    assert len(series["t"]) >= 1  # rows up to the abort are preserved


def _aborted_at_step_11(out, checkpoint_every):
    """Run a scenario whose escaped-mass gate trips at step 11."""
    spatial = SpatialProfile(kind="gaussian", scale=0.3, center=(0.0, 0.0, 0.0))
    cfg = small_scenario(
        grid=GridSpec(half_width=2.0, nodes=16),
        time=TimeSpec(dt=0.02, t_end=1.0, checkpoint_every=checkpoint_every),
        init=InitialDistributionSpec(kind="maxwellian", spatial=spatial, sigma=3.0),
        g_profile=spatial,
        max_escaped_frac=0.01,
    )
    with pytest.raises(runner.EscapedMassError, match="at step 11 "):
        runner.run(cfg, out)


def test_verify_fails_an_aborted_run(tmp_path):
    # the gate trips at step 11, after enough checkpoints for every check to
    # pass on the rows recorded before the abort
    out = tmp_path / "aborted"
    _aborted_at_step_11(out, checkpoint_every=1)
    report = runner.verify_path(out)
    assert report["checks"]["verdict"] == "pass"
    assert report["status"] == "escaped-mass-gate"
    assert "exceeds gate" in report["error"]
    assert report["verdict"] == "fail"


def test_verify_reports_a_run_aborted_before_ten_checkpoints(tmp_path, capsys):
    # checkpoints at steps 0, 5 and 10 are too few for the time-growth check,
    # but the abort alone fails the run
    out = tmp_path / "aborted"
    _aborted_at_step_11(out, checkpoint_every=5)
    assert cli.main(["verify", "--path", str(out)]) == 0
    assert "verdict: fail" in capsys.readouterr().out
    report = json.loads((out / runner.REPORT_NAME).read_text())
    assert report["status"] == "escaped-mass-gate"
    assert "exceeds gate" in report["error"]
    assert report["checks"] == {
        "error": "time-growth check needs >= 10 checkpoints, got 3",
        "verdict": "insufficient-data",
    }
    assert report["verdict"] == "fail"


def _verify_report_of_a_run_without_checkpoints(out, capsys):
    # the tables hold their headers alone
    for name in (runner.TIMESERIES_NAME, runner.FIELD_TABLE_NAME):
        assert len((out / name).read_text().splitlines()) == 1
    assert cli.main(["verify", "--path", str(out)]) == 0
    assert "verdict: fail" in capsys.readouterr().out
    report = json.loads((out / runner.REPORT_NAME).read_text())
    assert report["checks"] == {"error": "no checkpoint was recorded", "verdict": "insufficient-data"}
    assert report["ehat_sup_max"] is None
    assert set(report["electron_norms_max"].values()) == {None}
    assert report["verdict"] == "fail"
    return report


def test_verify_reports_a_run_aborted_by_the_solver_at_t0(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise fieldsolve.FieldSolveError("forced failure")

    monkeypatch.setattr(runner.fieldsolve, "solve_field", boom)
    out = tmp_path / "aborted"
    with pytest.raises(fieldsolve.FieldSolveError):
        runner.run(small_scenario(count=500), out)
    report = _verify_report_of_a_run_without_checkpoints(out, capsys)
    assert report["status"] == "solver-failure"
    assert report["error"] == "forced failure"
    # a completed run always has rows, so for it an empty table is a schema error
    meta_path = out / runner.META_NAME
    meta_path.write_text(json.dumps(json.loads(meta_path.read_text()) | {"status": "ok"}))
    with pytest.raises(diagnostics.SchemaError, match="no rows"):
        runner.verify_path(out)


def test_verify_reports_a_run_stopped_by_the_escaped_mass_gate_at_step_0(tmp_path, capsys):
    # a wide ion cloud in a small box: the t = 0 deposit already trips the gate
    wide = SpatialProfile(kind="gaussian", scale=1.5, center=(0.0, 0.0, 0.0))
    cfg = small_scenario(
        grid=GridSpec(half_width=2.0, nodes=16),
        count=500,
        init=InitialDistributionSpec(kind="maxwellian", spatial=wide, sigma=1.0),
        g_profile=NARROW,
        max_escaped_frac=0.01,
    )
    out = tmp_path / "aborted"
    with pytest.raises(runner.EscapedMassError, match="at step 0 "):
        runner.run(cfg, out)
    report = _verify_report_of_a_run_without_checkpoints(out, capsys)
    assert report["status"] == "escaped-mass-gate"
    assert "exceeds gate" in report["error"]


def test_verify_rejects_a_completed_run_with_too_few_checkpoints(tmp_path):
    cfg = small_scenario(time=TimeSpec(dt=0.01, t_end=0.02, checkpoint_every=1))
    out = runner.run(cfg, tmp_path / "short")
    with pytest.raises(ValueError, match="needs >= 10 checkpoints, got 3"):
        runner.verify_path(out)
    assert not (out / runner.REPORT_NAME).exists()


def test_field_snapshots_written_when_requested(tmp_path):
    cfg = small_scenario(
        count=500, time=TimeSpec(dt=0.01, t_end=0.03, checkpoint_every=3), save_fields=True
    )
    snapshot_dir = runner.run(cfg, tmp_path / "snap") / "snapshots"
    assert snapshot_dir.is_dir()
    u_path = snapshot_dir / "step_000000_u.field"
    assert u_path.exists()
    name, fld = mesh.read_field(u_path)
    assert name == "u"
    assert fld.values.shape == (16, 16, 16)
    name_e, e_fld = mesh.read_field(snapshot_dir / "step_000003_e.field")
    assert name_e == "e" and e_fld.values.shape == (16, 16, 16, 3)


def test_run_metadata_advisories_record_box_leakage(tmp_path):
    # sigma-1 tails on the half-width-4 box leave ~2e-4 outside: advisory
    cfg = small_scenario()
    out = runner.run(cfg, tmp_path / "adv")
    meta = json.loads((out / runner.META_NAME).read_text())
    assert any("outside the box" in a for a in meta["advisories"])
    assert meta["backend"] == "numpy"
    assert meta["boundary_closure"] == "monopole"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _small_ini(tmp_path):
    cfg = small_scenario(count=800, time=TimeSpec(dt=0.01, t_end=0.1, checkpoint_every=1))
    return _write(tmp_path, cfg.canonical_text(), name="small.ini")


def test_cli_run_verify_plot_chain(tmp_path, capsys):
    ini = _small_ini(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / runner.TIMESERIES_NAME).exists()

    assert cli.main(["verify", "--path", str(out)]) == 0
    report = json.loads((out / runner.REPORT_NAME).read_text())
    assert report["kind"] == "run"
    assert report["checks"]["q_order"]["verdict"] == "pass"
    assert "verdict:" in capsys.readouterr().out

    assert cli.main(["plot-data", "--path", str(out)]) == 0
    energy = (out / "plots" / "energy_vs_t.tsv").read_text().splitlines()
    assert energy[1] == "# t\tkinetic\tfield\telectron\ttotal"
    assert all(len(line.split("\t")) == 5 for line in energy[2:])
    q_lines = (out / "plots" / "q_vs_t.tsv").read_text().splitlines()
    assert all(len(line.split("\t")) == 3 for line in q_lines[2:])


def test_cli_sweep_and_report(tmp_path):
    ini = _small_ini(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(ini), "--epsilon", "1.0,0.8", "--out", str(out)]) == 0
    index = json.loads((out / runner.SWEEP_INDEX_NAME).read_text())
    assert [e["status"] for e in index["runs"]] == ["ok", "ok"]
    assert (out / "eps_1" / runner.TIMESERIES_NAME).exists()

    # two members cannot anchor the three-point envelope fit
    assert cli.main(["verify", "--path", str(out)]) == 0
    report = json.loads((out / runner.REPORT_NAME).read_text())
    assert report["main_bound_fit"]["verdict"] == "insufficient-data"

    assert cli.main(["plot-data", "--path", str(out)]) == 0
    assert (out / "plots" / "q_vs_inv_eps2.tsv").exists()


def test_sweep_needs_an_epsilon(tmp_path):
    with pytest.raises(ValueError, match="at least one epsilon"):
        runner.sweep(small_scenario(), [], tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def _fail_solves_below_eps_09(monkeypatch):
    solve = runner.fieldsolve.solve_field

    def fail_below_09(rho, g, epsilon, **kwargs):
        if epsilon < 0.9:
            raise fieldsolve.FieldSolveError(f"forced failure at eps {epsilon}")
        return solve(rho, g, epsilon, **kwargs)

    monkeypatch.setattr(runner.fieldsolve, "solve_field", fail_below_09)


def test_sweep_records_a_solver_abort_and_verify_skips_the_member(tmp_path, monkeypatch):
    _fail_solves_below_eps_09(monkeypatch)
    out = tmp_path / "sweep"
    index = json.loads(runner.sweep(small_scenario(count=800), [1.0, 0.8], out).read_text())
    assert [e["status"] for e in index["runs"]] == ["ok", "failed"]
    assert index["runs"][1]["error"] == "forced failure at eps 0.8"
    report = runner.verify_path(out)
    assert [m["epsilon"] for m in report["members"]] == [1.0]
    assert report["skipped"] == [{"dir": "eps_0.8", "error": "forced failure at eps 0.8"}]


def test_cli_sweep_names_each_failed_member(tmp_path, capsys, monkeypatch):
    _fail_solves_below_eps_09(monkeypatch)
    ini = _small_ini(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(ini), "--epsilon", "1.0,0.8", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"sweep: 1 of 2 members completed: {out / runner.SWEEP_INDEX_NAME}\n"
    assert captured.err == "vpme: sweep member eps_0.8 failed: forced failure at eps 0.8\n"


def test_sweep_with_an_aborted_member_fails(tmp_path, monkeypatch):
    # three members whose run reports and fit pass, and one stopped by the gate
    runs = [
        {"epsilon": eps, "dir": f"eps_{eps:g}", "status": "ok", "error": None}
        for eps in (1.0, 0.7, 0.5)
    ]
    runs.append({"epsilon": 0.3, "dir": "eps_0.3", "status": "failed", "error": "gate"})
    out = tmp_path / "sweep"
    out.mkdir()
    (out / runner.SWEEP_INDEX_NAME).write_text(json.dumps({"kind": "sweep", "runs": runs}))

    def passing_report(path, series):
        return {
            "epsilon": float(path.name[4:]),
            "omega": 0.25,
            "ehat_sup_max": 1.0,
            "electron_norms_max": {"L1": 1.0},
            "verdict": "pass",
        }

    series = {"q_tt": np.array([1.0]), "t": np.array([0.1])}
    monkeypatch.setattr(diagnostics, "read_timeseries", lambda path: series)
    monkeypatch.setattr(runner, "_run_report", passing_report)
    monkeypatch.setattr(runner.verify, "fit_main_bound", lambda points, omega: {"verdict": "pass"})
    report = runner.verify_path(out)
    assert [m["verdict"] for m in report["members"]] == ["pass"] * 3
    assert report["main_bound_fit"]["verdict"] == "pass"
    assert report["skipped"] == [{"dir": "eps_0.3", "error": "gate"}]
    assert report["verdict"] == "fail"


def test_cli_sweep_fails_on_a_scenario_error(tmp_path, capsys):
    # every member would fail the same way, so the sweep must not report success
    far = SpatialProfile(kind="uniform_ball", scale=0.5, center=(50.0, 0.0, 0.0))
    cfg = small_scenario(count=800, g_profile=far)
    ini = _write(tmp_path, cfg.canonical_text(), name="empty_background.ini")
    out = tmp_path / "sweep"
    args = ["sweep", "--config", str(ini), "--epsilon", "1.0,0.8", "--out", str(out)]
    assert cli.main(args) == cli.EXIT_USAGE
    assert "background profile has no mass on the grid" in capsys.readouterr().err
    assert not (out / runner.SWEEP_INDEX_NAME).exists()


def test_cli_run_leaves_no_output_directory_on_a_scenario_error(tmp_path, capsys):
    # the background is built before anything is written, snapshots included
    far = SpatialProfile(kind="uniform_ball", scale=0.5, center=(50.0, 0.0, 0.0))
    cfg = small_scenario(count=800, g_profile=far, save_fields=True)
    ini = _write(tmp_path, cfg.canonical_text(), name="empty_background.ini")
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == cli.EXIT_USAGE
    assert "background profile has no mass on the grid" in capsys.readouterr().err
    assert not out.exists()


def test_plot_data_parses_each_sweep_member_once(tmp_path, monkeypatch):
    out = tmp_path / "sweep"
    runner.run(small_scenario(time=TimeSpec(dt=0.01, t_end=0.02, checkpoint_every=1)), out / "eps_1")
    shutil.copytree(out / "eps_1", out / "eps_0.8")
    runs = [
        {"epsilon": 1.0, "dir": "eps_1", "status": "ok", "error": None},
        {"epsilon": 0.8, "dir": "eps_0.8", "status": "ok", "error": None},
        {"epsilon": 0.5, "dir": "eps_0.5", "status": "failed", "error": "forced"},
    ]
    (out / runner.SWEEP_INDEX_NAME).write_text(json.dumps({"kind": "sweep", "runs": runs}))
    parsed = []
    read = diagnostics.read_timeseries
    monkeypatch.setattr(diagnostics, "read_timeseries", lambda path: parsed.append(path) or read(path))
    runner.plot_data(out)
    assert sorted(p.parent.name for p in parsed) == ["eps_0.8", "eps_1"]


def test_failed_sweep_member_is_skipped_by_verify_and_plot_data(tmp_path):
    out = tmp_path / "sweep"
    runner.run(small_scenario(epsilon=1.0), out / "eps_1")
    # the failed member's directory holds a complete run, which must still be ignored
    shutil.copytree(out / "eps_1", out / "eps_0.5")
    runs = [
        {"epsilon": 1.0, "dir": "eps_1", "status": "ok", "error": None},
        {"epsilon": 0.5, "dir": "eps_0.5", "status": "failed", "error": "forced"},
    ]
    (out / runner.SWEEP_INDEX_NAME).write_text(json.dumps({"kind": "sweep", "runs": runs}))
    report = runner.verify_path(out)
    assert [m["epsilon"] for m in report["members"]] == [1.0]
    assert report["skipped"] == [{"dir": "eps_0.5", "error": "forced"}]
    runner.plot_data(out)
    assert (out / "eps_1" / "plots").is_dir()
    assert not (out / "eps_0.5" / "plots").exists()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_sweep_json_artifacts_are_strict(tmp_path):
    ini = _small_ini(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(ini), "--epsilon", "1.0,0.8", "--out", str(out)]) == 0
    assert cli.main(["verify", "--path", str(out)]) == 0
    paths = [out / runner.SWEEP_INDEX_NAME, out / runner.REPORT_NAME]
    paths += [out / member / runner.META_NAME for member in ("eps_1", "eps_0.8")]
    for path in paths:
        json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("epsilons", ["1.0,nan", "1.0,1.5"])
def test_cli_sweep_rejects_a_bad_epsilon_before_running(tmp_path, capsys, epsilons):
    ini = _small_ini(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(ini), "--epsilon", epsilons, "--out", str(out)]) == 1
    assert "epsilon must lie in (0, 1]" in capsys.readouterr().err
    assert not (out / runner.SWEEP_INDEX_NAME).exists()
    assert not (out / "eps_1").exists()


def test_cli_sweep_rejects_epsilons_sharing_a_member_directory(tmp_path, capsys):
    ini = _small_ini(tmp_path)
    out = tmp_path / "sweep"
    args = ["sweep", "--config", str(ini), "--epsilon", "1.0,0.5,0.5000001", "--out", str(out)]
    assert cli.main(args) == 1
    assert "['eps_0.5'] repeat" in capsys.readouterr().err
    assert not out.exists()


def test_drift_offsets_every_initial_kind():
    cfg = small_scenario(drift=(0.5, 0.0, -0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 16^3 background is renormalized
        g = mesh.evaluate_g(cfg.g_profile, cfg.grid)
    ens = runner._build_ensemble(cfg, g, cfg.seed)
    mean = np.average(ens.velocities, weights=ens.weights, axis=0)
    # sigma = 1 Maxwellian: each mean component has standard error 1/sqrt(count)
    assert np.abs(mean - np.asarray(cfg.drift)).max() <= 5.0 / np.sqrt(cfg.count)
    assert particles.q_star(ens) == 0.0


def test_vpme_imports_nothing_beyond_numpy_and_the_standard_library():
    # scipy is a test dependency only, and every import adds to a run's start-up
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import vpme, vpme.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'vpme'})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_perfbench_tracer_installs_on_vpme():
    # perfbench/spans.py wraps vpme functions by name, so a renamed or deleted
    # one would break `perfbench/run.py --trace 1` while every other test passes
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    code = "import spans\nspans.Tracer().install()\n"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_perfbench_smoke_ends_ok():
    # perfbench/child.py ends set-up at the first pusher.step call; a runner
    # that stops calling it first leaves loop_s at 0 and run.py crashes
    root = Path(cli.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--smoke"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "smoke: ok"


def test_cli_usage_and_config_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", "x.ini"])  # --out missing
    assert exc.value.code == cli.EXIT_USAGE
    capsys.readouterr()

    assert cli.main(["run", "--config", str(tmp_path / "no.ini"), "--out", str(tmp_path / "o")]) == 1
    assert "cannot read" in capsys.readouterr().err

    ini = _small_ini(tmp_path)
    assert cli.main(["sweep", "--config", str(ini), "--epsilon", " , ", "--out", str(tmp_path / "s")]) == 1
    assert cli.main(["verify", "--path", str(tmp_path / "nowhere")]) == 1


def test_cli_escaped_mass_exit_code(tmp_path, capsys):
    cfg = small_scenario(
        grid=GridSpec(half_width=2.0, nodes=16),
        time=TimeSpec(dt=0.05, t_end=1.0, checkpoint_every=1),
        init=InitialDistributionSpec(kind="maxwellian", spatial=NARROW, sigma=3.0),
        g_profile=NARROW,
        max_escaped_frac=0.01,
    )
    ini = _write(tmp_path, cfg.canonical_text(), name="leaky.ini")
    code = cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "leaky")])
    assert code == cli.EXIT_ESCAPED
    assert "exceeds gate" in capsys.readouterr().err


def test_cli_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise fieldsolve.FieldSolveError("forced failure")

    monkeypatch.setattr(runner.fieldsolve, "solve_field", boom)
    ini = _small_ini(tmp_path)
    code = cli.main(["run", "--config", str(ini), "--out", str(tmp_path / "fail")])
    assert code == cli.EXIT_SOLVER
    assert "field solve failed" in capsys.readouterr().err
    meta = json.loads((tmp_path / "fail" / runner.META_NAME).read_text())
    assert meta["status"] == "solver-failure"


def test_cli_verify_and_plot_data_reject_a_directory_without_artifacts(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["verify", "--path", str(empty)]) == 1
    verify_err = capsys.readouterr().err
    assert "holds neither a run nor a sweep" in verify_err
    assert cli.main(["plot-data", "--path", str(empty)]) == 1
    assert capsys.readouterr().err == verify_err


def test_cli_verify_rejects_truncated_series(tmp_path, capsys):
    ini = _small_ini(tmp_path)
    out = tmp_path / "trunc"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    series_path = out / runner.TIMESERIES_NAME
    raw = series_path.read_bytes()
    series_path.write_bytes(raw[: len(raw) - len(raw.splitlines(True)[-1]) - 40])
    assert cli.main(["verify", "--path", str(out)]) == 1
    assert "expected" in capsys.readouterr().err
