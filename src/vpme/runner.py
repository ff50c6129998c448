"""Simulation driver: run loop, epsilon sweeps, report assembly, plot tables.

``run`` writes one scenario into a directory and returns that directory;
``sweep`` runs it once per epsilon into ``eps_<value>`` members listed in
``index.json``. ``verify_path`` and ``plot_data`` take either kind of
directory and walk a sweep's members through one reader of its index.

Loop shape: kick-drift-kick with the current field -> deposit rho -> solve
the field, strictly in that order; the electron solve warm-starts from the
previous step's correction. t = 0 is the deposit and solve without a push.
Each deposit is followed by the escaped-mass gate. Each checkpoint (t = 0,
every ``checkpoint_every`` steps and the last step) is one pass: the
midpoint current gives the continuity residual, one
``DiagnosticsAccumulator.record`` call appends the rows of both
timeseries.csv and fields.csv, the step-size advisories are merged, and the
field snapshot is written when requested.

Failure handling: whatever was recorded before an abort is persisted, then
the error propagates (the CLI maps it to an exit code). Breaching the
escaped-mass gate and a non-converging solver are the two abort paths.
Every JSON artifact goes through ``verify.emit_report``.
"""

import json
import time as _time
import warnings
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


def _build_ensemble(cfg, g, seed):
    if cfg.init.kind == "cold_lattice":
        ens = particles.node_lattice(g)
    else:
        ens = particles.sample_initial(cfg.init, cfg.count, seed)
    if any(c != 0.0 for c in cfg.drift):
        ens.velocities += np.asarray(cfg.drift)
        ens.initial_velocities = ens.velocities.copy()
    return ens


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
    """Execute one scenario into ``out_dir``; returns the directory as a Path.

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
    gate = cfg.max_escaped_frac * ens.total_weight
    dt = cfg.time.dt
    escaped_peak = 0.0
    status = "ok"
    error_msg = None
    wall_start = _time.perf_counter()

    def _persist():
        diagnostics.write_timeseries(out / TIMESERIES_NAME, acc)
        diagnostics.write_table(out / FIELD_TABLE_NAME, diagnostics.FIELD_COLUMNS, acc.field_rows())
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
        verify.emit_report(meta, out / META_NAME)

    def _deposit(n):
        nonlocal escaped_peak
        rho = mesh.deposit_density(ens, cfg.grid)
        escaped_peak = max(escaped_peak, ens.escaped_mass)
        if ens.escaped_mass > gate:
            raise EscapedMassError(
                f"escaped mass {ens.escaped_mass:.3e} exceeds gate {gate:.3e} "
                f"at step {n} (t = {n * dt!r})"
            )
        return rho

    def _checkpoint(n, cres):
        v2max = acc.record(n * dt, ens, sol, g, rho, cres)
        for msg in pusher.stability_check(v2max, sol.e, dt):
            if msg not in advisories:
                advisories.append(msg)
        if snapshot_dir is not None:
            _snapshot(snapshot_dir, n, sol)

    try:
        rho = _deposit(0)
        selfconsistent = cfg.field_mode == "selfconsistent"
        if selfconsistent:
            sol = fieldsolve.solve_field(rho, g, cfg.epsilon)
        else:
            sol = fieldsolve.zero_solution(cfg.grid, cfg.epsilon)
        _checkpoint(0, 0.0)

        steps = cfg.time.steps
        xmid = np.empty_like(ens.positions)
        vmid = np.empty_like(ens.velocities)
        for n in range(1, steps + 1):
            pusher.step(ens, sol.e, dt, xmid, vmid)
            rho_prev, rho = rho, _deposit(n)
            if selfconsistent:
                sol = fieldsolve.solve_field(rho, g, cfg.epsilon, uhat_initial=sol.uhat)
            if n % cfg.time.checkpoint_every == 0 or n == steps:
                j_mid = mesh.current_from_arrays(xmid, vmid, ens.weights, cfg.grid)
                _checkpoint(n, diagnostics.continuity_residual(rho_prev, rho, j_mid, dt))
    except (EscapedMassError, fieldsolve.FieldSolveError) as exc:
        status = "escaped-mass-gate" if isinstance(exc, EscapedMassError) else "solver-failure"
        error_msg = str(exc)
        _persist()
        raise

    _persist()
    return out


def sweep(cfg, epsilons, out_dir):
    """Run the scenario once per epsilon (same seed); failures are recorded.

    Every epsilon is validated before any member runs, so a bad value raises
    ConfigError and writes nothing.
    """
    if not epsilons:
        raise ValueError("sweep needs at least one epsilon value")
    configs = [cfg.with_epsilon(eps) for eps in epsilons]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for eps, member_cfg in zip(epsilons, configs):
        member_dir = f"eps_{eps:g}"
        entry = {"epsilon": eps, "dir": member_dir, "status": "ok", "error": None}
        try:
            run(member_cfg, out / member_dir)
        except (EscapedMassError, fieldsolve.FieldSolveError, ValueError) as exc:
            entry["status"] = "failed"
            entry["error"] = str(exc)
        entries.append(entry)
    verify.emit_report(
        {"kind": "sweep", "epsilons": list(epsilons), "runs": entries}, out / SWEEP_INDEX_NAME
    )
    return out / SWEEP_INDEX_NAME


# ---------------------------------------------------------------------------
# verification over artifacts on disk
# ---------------------------------------------------------------------------


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_members(path):
    """A sweep's index entries split into (ok, failed); None for a run directory."""
    if (path / SWEEP_INDEX_NAME).exists():
        runs = _read_json(path / SWEEP_INDEX_NAME)["runs"]
        return [e for e in runs if e["status"] == "ok"], [e for e in runs if e["status"] != "ok"]
    if (path / TIMESERIES_NAME).exists():
        return None
    raise FileNotFoundError(f"{path} holds neither a run nor a sweep")


def _run_report(path, series):
    fields = diagnostics.read_table(path / FIELD_TABLE_NAME, diagnostics.FIELD_COLUMNS)
    meta = _read_json(path / META_NAME)
    checks = verify.run_checks(series, meta)
    return {
        "kind": "run",
        "scenario_hash": meta["scenario_hash"],
        "seed": meta["seed"],
        "epsilon": meta["epsilon"],
        "omega": meta["omega"],
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


def verify_path(path):
    """Build the bound report for a run or sweep directory and persist it."""
    path = Path(path)
    members = _sweep_members(path)
    if members is None:
        report = _run_report(path, diagnostics.read_timeseries(path / TIMESERIES_NAME))
    else:
        report = _sweep_report(path, *members)
    verify.emit_report(report, path / REPORT_NAME)
    return report


def _sweep_report(path, ok, failed):
    members = []
    fit_points = []
    for entry in ok:
        member = path / entry["dir"]
        series = diagnostics.read_timeseries(member / TIMESERIES_NAME)
        sub = _run_report(member, series)
        members.append(sub)
        fit_points.append(
            {
                "epsilon": sub["epsilon"],
                "q_final": float(series["q_tt"][-1]),
                "t_final": float(series["t"][-1]),
            }
        )
    if len(fit_points) >= 3:
        fit = verify.fit_main_bound(fit_points, members[0]["omega"])
    else:
        fit = {"verdict": "insufficient-data", "usable_members": len(fit_points)}
    verdicts = [m["verdict"] for m in members] + [fit["verdict"]]
    overall = "pass" if verdicts and all(v == "pass" for v in verdicts) else "fail"
    return {
        "kind": "sweep",
        "members": members,
        "skipped": [{"dir": e["dir"], "error": e["error"]} for e in failed],
        "main_bound_fit": fit,
        "ehat_trend": verify.ehat_trend(
            [{"epsilon": m["epsilon"], "ehat_sup": m["ehat_sup_max"]} for m in members]
        ),
        "electron_norm_trend": {
            "table": [{"epsilon": m["epsilon"]} | m["electron_norms_max"] for m in members]
        },
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
    members = _sweep_members(path)
    if members is None:
        return _plot_run(path, diagnostics.read_timeseries(path / TIMESERIES_NAME))
    written = []
    rows = []
    for entry in members[0]:
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
