"""Simulation driver: run loop, epsilon sweeps, report assembly, plot tables.

Loop shape: deposit rho -> solve field -> kick-drift-kick with that field,
strictly in that order; every checkpoint the midpoint current is deposited
and diagnostics recorded. The electron solve warm-starts from the previous
step's correction.

Failure handling: whatever was recorded before an abort is persisted, then
the error propagates (the CLI maps it to an exit code). Breaching the
escaped-mass gate and a non-converging solver are the two abort paths.
"""

import json
import time as _time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, fieldsolve, kernels, mesh, particles, pusher, verify

META_NAME = "run_meta.json"
TIMESERIES_NAME = "timeseries.csv"
FIELD_TABLE_NAME = "fields.csv"
SWEEP_INDEX_NAME = "index.json"
REPORT_NAME = "report.json"


class EscapedMassError(RuntimeError):
    """More weight left the box than the configured gate allows."""


@dataclass
class RunArtifacts:
    out_dir: Path
    timeseries_path: Path
    field_table_path: Path
    meta_path: Path
    snapshot_dir: Path | None
    status: str


def _build_ensemble(cfg, g, seed):
    if cfg.init.kind == "cold_lattice":
        ens = particles.node_lattice(g)
        if any(c != 0.0 for c in cfg.drift):
            ens.velocities += np.asarray(cfg.drift)
            ens.initial_velocities = ens.velocities.copy()
        return ens
    return particles.sample_initial(cfg.init, cfg.count, seed)


def _write_meta(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _snapshot(snapshot_dir, step_index, solution):
    tag = f"step_{step_index:06d}"
    for name, fld in (
        ("u", solution.u),
        ("ubar", solution.ubar),
        ("uhat", solution.uhat),
        ("e", solution.e),
    ):
        mesh.write_field(snapshot_dir / f"{tag}_{name}.field", name, fld)


def run(cfg, out_dir, seed=None):
    """Execute one scenario into ``out_dir``; returns RunArtifacts.

    ``seed`` overrides the configured one.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed if seed is None else int(seed)
    cfg = cfg.with_seed(seed)

    snapshot_dir = None
    if cfg.save_fields:
        snapshot_dir = out / "snapshots"
        snapshot_dir.mkdir(exist_ok=True)

    advisories = list(cfg.box_mass_warnings())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = mesh.evaluate_g(cfg.g_profile, cfg.grid)
    advisories += [str(w.message) for w in caught]

    ens = _build_ensemble(cfg, g, seed)
    acc = diagnostics.DiagnosticsAccumulator(cfg.init.m1)
    field_rows = []
    gate = cfg.max_escaped_frac * ens.total_weight
    escaped_peak = 0.0
    status = "ok"
    error_msg = None
    wall_start = _time.perf_counter()

    def _persist():
        diagnostics.write_timeseries(out / TIMESERIES_NAME, acc)
        diagnostics.write_table(out / FIELD_TABLE_NAME, diagnostics.FIELD_COLUMNS, field_rows)
        meta = {
            "advisories": advisories,
            "backend": kernels.BACKEND,
            "boundary_closure": "monopole",
            "config_text": cfg.canonical_text(),
            "epsilon": cfg.epsilon,
            "escaped_mass_peak": escaped_peak,
            "error": error_msg,
            "field_mode": cfg.field_mode,
            "grid": {"half_width": cfg.grid.half_width, "nodes": cfg.grid.nodes},
            "init_kind": cfg.init.kind,
            "m1": cfg.init.m1,
            "max_escaped_frac": cfg.max_escaped_frac,
            "omega": cfg.omega,
            "particle_count": ens.count,
            "scenario_hash": cfg.scenario_hash(),
            "seed": seed,
            "status": status,
            "time": {
                "dt": cfg.time.dt,
                "t_end": cfg.time.t_end,
                "checkpoint_every": cfg.time.checkpoint_every,
                "steps": cfg.time.steps,
            },
            "version": __version__,
            "wall_time_s": _time.perf_counter() - wall_start,
        }
        _write_meta(out / META_NAME, meta)

    try:
        rho = mesh.deposit_density(ens, cfg.grid)
        escaped_peak = max(escaped_peak, ens.escaped_mass)
        if ens.escaped_mass > gate:
            raise EscapedMassError(
                f"initial escaped mass {ens.escaped_mass:.3e} exceeds gate {gate:.3e}"
            )
        selfconsistent = cfg.field_mode == "selfconsistent"
        if selfconsistent:
            sol = fieldsolve.solve_field(rho, g, cfg.epsilon)
        else:
            sol = fieldsolve.zero_solution(cfg.grid, cfg.epsilon)

        for msg in pusher.stability_check(ens, sol, cfg.grid, cfg.time.dt):
            if msg not in advisories:
                advisories.append(msg)

        acc.record(0.0, ens, sol, g, rho, 0.0)
        field_rows.append(diagnostics.field_table_row(0.0, sol, g))
        if snapshot_dir is not None:
            _snapshot(snapshot_dir, 0, sol)

        steps = cfg.time.steps
        dt = cfg.time.dt
        xmid = np.empty_like(ens.positions)
        vmid = np.empty_like(ens.velocities)
        for n in range(1, steps + 1):
            is_checkpoint = (n % cfg.time.checkpoint_every == 0) or n == steps
            pusher.step(ens, sol, dt, xmid, vmid)
            rho_prev = rho
            rho = mesh.deposit_density(ens, cfg.grid)
            escaped_peak = max(escaped_peak, ens.escaped_mass)
            if ens.escaped_mass > gate:
                raise EscapedMassError(
                    f"escaped mass {ens.escaped_mass:.3e} exceeds gate {gate:.3e} "
                    f"at step {n} (t = {n * dt!r})"
                )
            if selfconsistent:
                sol = fieldsolve.solve_field(rho, g, cfg.epsilon, uhat_initial=sol.uhat)
            if is_checkpoint:
                j_mid = mesh.current_from_arrays(xmid, vmid, ens.weights, cfg.grid)
                cres = diagnostics.continuity_residual(rho_prev, rho, j_mid, dt)
                acc.record(n * dt, ens, sol, g, rho, cres)
                field_rows.append(diagnostics.field_table_row(n * dt, sol, g))
                for msg in pusher.stability_check(ens, sol, cfg.grid, dt):
                    if msg not in advisories:
                        advisories.append(msg)
                if snapshot_dir is not None:
                    _snapshot(snapshot_dir, n, sol)
    except EscapedMassError as exc:
        status, error_msg = "escaped-mass-gate", str(exc)
        _persist()
        raise
    except fieldsolve.FieldSolveError as exc:
        status, error_msg = "solver-failure", str(exc)
        _persist()
        raise

    _persist()
    return RunArtifacts(
        out_dir=out,
        timeseries_path=out / TIMESERIES_NAME,
        field_table_path=out / FIELD_TABLE_NAME,
        meta_path=out / META_NAME,
        snapshot_dir=snapshot_dir,
        status=status,
    )


def sweep(cfg, epsilons, out_dir, seed=None):
    """Run the scenario once per epsilon (same seed); failures are recorded."""
    if not epsilons:
        raise ValueError("sweep needs at least one epsilon value")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for eps in epsilons:
        member_dir = f"eps_{eps:g}"
        entry = {"epsilon": eps, "dir": member_dir, "status": "ok", "error": None}
        try:
            run(cfg.with_epsilon(eps), out / member_dir, seed=seed)
        except (EscapedMassError, fieldsolve.FieldSolveError, ValueError) as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
        entries.append(entry)
    index = {"kind": "sweep", "epsilons": list(epsilons), "runs": entries}
    with open(out / SWEEP_INDEX_NAME, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(index, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return out / SWEEP_INDEX_NAME


# ---------------------------------------------------------------------------
# verification over artifacts on disk
# ---------------------------------------------------------------------------


def _load_run(path):
    path = Path(path)
    series = diagnostics.read_timeseries(path / TIMESERIES_NAME)
    fields = diagnostics.read_table(path / FIELD_TABLE_NAME, diagnostics.FIELD_COLUMNS)
    with open(path / META_NAME, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    return series, fields, meta


def _run_report(series, fields, meta, omega=None):
    checks = verify.run_checks(series, meta, omega=omega)
    return {
        "kind": "run",
        "scenario_hash": meta["scenario_hash"],
        "seed": meta["seed"],
        "epsilon": meta["epsilon"],
        "omega": float(omega) if omega is not None else meta["omega"],
        "grid": meta["grid"],
        "time": meta["time"],
        "checks": checks,
        "ehat_sup_max": float(np.max(fields["ehat_sup"])),
        "electron_norms_max": {
            "L1": float(np.max(fields["geU_L1"])),
            "L2": float(np.max(fields["geU_L2"])),
            "L3": float(np.max(fields["geU_L3"])),
            "Linf": float(np.max(fields["geU_Linf"])),
        },
        "verdict": checks["verdict"],
    }


def verify_path(path, omega=None):
    """Build the bound report for a run or sweep directory and persist it."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no artifacts at {path}")
    if (path / SWEEP_INDEX_NAME).exists():
        report = _sweep_report(path, omega)
    elif (path / TIMESERIES_NAME).exists():
        report = _run_report(*_load_run(path), omega)
    else:
        raise FileNotFoundError(f"{path} holds neither a run nor a sweep")
    verify.emit_report(report, path / REPORT_NAME)
    return report


def _sweep_report(path, omega=None):
    with open(path / SWEEP_INDEX_NAME, "r", encoding="utf-8") as fh:
        index = json.load(fh)
    members = []
    fit_points = []
    ehat_entries = []
    norm_entries = []
    skipped = []
    eff_omega = None
    for entry in index["runs"]:
        if entry["status"] != "ok":
            skipped.append({"dir": entry["dir"], "error": entry["error"]})
            continue
        series, fields, meta = _load_run(path / entry["dir"])
        sub = _run_report(series, fields, meta, omega)
        members.append(sub)
        eff_omega = sub["omega"] if eff_omega is None else eff_omega
        fit_points.append(
            {
                "epsilon": sub["epsilon"],
                "q_final": float(series["q_tt"][-1]),
                "t_final": float(series["t"][-1]),
            }
        )
        ehat_entries.append({"epsilon": sub["epsilon"], "ehat_sup": sub["ehat_sup_max"]})
        norm_entries.append(
            {"epsilon": sub["epsilon"]}
            | {f"geU_{k}": v for k, v in sub["electron_norms_max"].items()}
        )
    if len(fit_points) >= 3:
        fit = verify.fit_main_bound(fit_points, verify.DEFAULT_OMEGA if eff_omega is None else eff_omega)
    else:
        fit = {"verdict": "insufficient-data", "usable_members": len(fit_points)}
    verdicts = [m["verdict"] for m in members] + [fit["verdict"]]
    overall = "pass" if verdicts and all(v == "pass" for v in verdicts) else "fail"
    return {
        "kind": "sweep",
        "members": members,
        "skipped": skipped,
        "main_bound_fit": fit,
        "ehat_trend": verify.ehat_trend(ehat_entries),
        "electron_norm_trend": verify.electron_norm_trend(norm_entries),
        "verdict": overall,
    }


# ---------------------------------------------------------------------------
# plot-ready tables
# ---------------------------------------------------------------------------


def _write_tsv(path, comment, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write("# " + "\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")


def plot_data(path):
    """Emit plain TSV tables (no rendering) for a run or sweep directory."""
    path = Path(path)
    if (path / SWEEP_INDEX_NAME).exists():
        return _plot_sweep(path)
    if not (path / TIMESERIES_NAME).exists():
        raise FileNotFoundError(f"no run artifacts at {path}")
    return _plot_run(path, diagnostics.read_timeseries(path / TIMESERIES_NAME))


def _plot_run(path, series):
    plot_dir = path / "plots"
    plot_dir.mkdir(exist_ok=True)
    t = series["t"]
    written = []

    def emit(name, comment, columns, arrays):
        out = plot_dir / name
        _write_tsv(out, comment, columns, np.column_stack(arrays))
        written.append(out)

    emit(
        "energy_vs_t.tsv",
        "energy split per checkpoint",
        ["t", "kinetic", "field", "electron", "total"],
        [t, series["kinetic"], series["field"], series["electron"], series["total"]],
    )
    emit(
        "q_vs_t.tsv",
        "field-integral and velocity-deviation suprema",
        ["t", "q_tt", "q_star"],
        [t, series["q_tt"], series["q_star"]],
    )
    emit(
        "density_vs_qcube.tsv",
        "max density against the cubic deviation law",
        ["t", "one_plus_q_star_cubed", "rho_inf"],
        [t, 1.0 + series["q_star"] ** 3, series["rho_inf"]],
    )
    return written


def _plot_sweep(path):
    with open(path / SWEEP_INDEX_NAME, "r", encoding="utf-8") as fh:
        index = json.load(fh)
    written = []
    rows = []
    for entry in index["runs"]:
        if entry["status"] != "ok":
            continue
        member = path / entry["dir"]
        series = diagnostics.read_timeseries(member / TIMESERIES_NAME)
        written.extend(_plot_run(member, series))
        eps = entry["epsilon"]
        rows.append([eps, 1.0 / eps**2, float(series["q_tt"][-1])])
    plot_dir = path / "plots"
    plot_dir.mkdir(exist_ok=True)
    out = plot_dir / "q_vs_inv_eps2.tsv"
    _write_tsv(out, "final Q(T,T) per sweep member", ["epsilon", "inv_eps2", "q_final"], rows)
    written.append(out)
    return written
