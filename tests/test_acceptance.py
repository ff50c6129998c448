"""Acceptance gates, one test per criterion, one printed verdict line each.

Heavy scenarios come from the session-scoped fixtures in conftest; the
remaining criteria run their own short studies inline. Tolerances are pinned
here and nowhere else.
"""

import math
import warnings

import numpy as np
import pytest

import conftest
from conftest import make_scenario
from vpme import diagnostics, fieldsolve, pusher, runner, verify
from vpme.mesh import GridSpec, VectorField, evaluate_g
from vpme.particles import InitialDistributionSpec, ParticleEnsemble
from vpme.profiles import SpatialProfile
from vpme.pusher import TimeSpec

# every criterion here drives the session fixtures or a study of its own;
# `-m "not slow"` leaves the unit tests, which run in seconds
pytestmark = pytest.mark.slow


def _verdict(number, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({detail})"
    conftest.CRITERION_LINES.append((number, line))
    print(line)
    assert ok, line


def _drift(series):
    total = series["total"]
    return float(np.max(np.abs(total - total[0])) / abs(total[0]))


def test_criterion_1_equilibrium_exactness(equilibrium_run):
    e_sup = float(np.max(equilibrium_run.fields["e_sup"]))
    q_tt_final = float(equilibrium_run.series["q_tt"][-1])
    total = equilibrium_run.series["total"]
    drift = float(np.max(np.abs(total - total[0])) / abs(total[0]))
    ok = e_sup <= 1e-9 and q_tt_final <= 1e-9 and drift <= 1e-12
    _verdict(
        1,
        "matched densities stay motionless with zero field",
        ok,
        f"max|E| {e_sup:.2e}, q_tt(T) {q_tt_final:.2e}, energy drift {drift:.2e}",
    )


def test_criterion_2_ball_potential_oracle():
    radius, eps = 0.5, 1.0
    exact = 3.0 / (8.0 * math.pi * eps**2 * radius)
    errors = []
    for nodes in (32, 64, 128):
        grid = GridSpec(half_width=2.0, nodes=nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rho = evaluate_g(SpatialProfile(kind="uniform_ball", scale=radius), grid)
        ub = fieldsolve.solve_ubar(rho, eps)
        c = nodes // 2
        center = ub.values[c - 1 : c + 1, c - 1 : c + 1, c - 1 : c + 1].mean()
        errors.append(abs(center - exact) / exact)
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = errors[1] <= 0.02 and min(orders) >= 1.8
    _verdict(
        2,
        "ion potential matches the uniform-ball closed form",
        ok,
        f"rel err N=64 {errors[1]:.4f}, orders {orders[0]:.2f}/{orders[1]:.2f}",
    )


def test_criterion_3_solver_certificates_on_every_baseline_solve(baseline_run):
    res = baseline_run.series["residual_inf"]
    scale = np.maximum(1.0, baseline_run.fields["geU_Linf"])
    res_ok = bool((res <= 1e-10 * scale).all())
    uhat_max = float(np.max(baseline_run.fields["uhat_max"]))
    gauss = float(np.max(np.abs(baseline_run.series["gauss_imbalance"])))
    ok = res_ok and uhat_max <= 1e-8 and gauss <= 1e-8
    _verdict(
        3,
        "every solve certifies residual, sign, and Gauss identity",
        ok,
        f"worst residual/scale {float(np.max(res / scale)):.2e}, "
        f"max Uhat {uhat_max:.2e}, max |gauss| {gauss:.2e}",
    )


def test_criterion_4_energy_conservation_under_dt_refinement(
    baseline_run, baseline_double_dt_run
):
    wall = float(baseline_run.meta["wall_time_s"])
    drift = _drift(baseline_run.series)
    coarse = _drift(baseline_double_dt_run.series)
    ratio = coarse / drift
    ok = drift <= 0.02 and ratio >= 2.0 and wall <= 300.0
    _verdict(
        4,
        "energy drifts under 2% and halving dt cuts it at least in half",
        ok,
        f"drift {drift:.3e} at dt=0.005, {coarse:.3e} at dt=0.01, "
        f"ratio {ratio:.2f}, wall {wall:.0f}s",
    )


def test_criterion_5_moment_bound_chain(baseline_run, powerlaw_run):
    worst = []
    for run in (baseline_run, powerlaw_run):
        m1 = float(run.meta["m1"])
        for k, column in ((2.0, "m2"), (m1, "mk_m1"), (3.0, "m3")):
            out = verify.check_moment_bound(run.series, k, column)
            worst.append(out["max_ratio"])
    ok = max(worst) <= 1.0 + 1e-9
    _verdict(
        5,
        "m_k(t) <= 2^k (m_k(0) + q_star^k) at every checkpoint",
        ok,
        f"worst ratio {max(worst):.12f} over {len(worst)} column checks",
    )


def test_criterion_6_q_ordering_everywhere(
    baseline_run,
    baseline_double_dt_run,
    powerlaw_run,
    equilibrium_run,
    freestream_run,
    sweep_dir,
):
    series_list = [
        baseline_run.series,
        baseline_double_dt_run.series,
        powerlaw_run.series,
        equilibrium_run.series,
        freestream_run.series,
    ]
    for member in ("eps_1", "eps_0.7", "eps_0.5"):
        series_list.append(
            diagnostics.read_timeseries(sweep_dir / member / runner.TIMESERIES_NAME)
        )
    excesses = [verify.check_q_order(s)["max_excess"] for s in series_list]
    ok = max(excesses) <= 1e-8
    _verdict(
        6,
        "q_star never exceeds q_tt across all acceptance runs",
        ok,
        f"max excess {max(excesses):.2e} over {len(series_list)} runs",
    )


def test_criterion_7_density_stays_under_cubic_law(powerlaw_run):
    out = verify.check_density_bound(powerlaw_run.series, applicable=True)
    ok = out["verdict"] == "pass"
    _verdict(
        7,
        "rho_inf/(1 + q_star^3) bounded by 10x its initial value",
        ok,
        f"max ratio {out['fitted_C']:.4f} vs threshold {out['threshold']:.4f}",
    )


def test_criterion_8_free_streaming_invariants(freestream_run, tmp_path):
    series = freestream_run.series
    moment_drift = 0.0
    for column in ("m2", "mk_m1", "m3"):
        col = series[column]
        moment_drift = max(moment_drift, float(np.max(np.abs(col - col[0])) / col[0]))
    q_zero = float(np.max(series["q_star"])) == 0.0 and float(np.max(series["q_tt"])) == 0.0

    # continuity defect under grid refinement: drifting cold lattice, 16 steps
    # of dt = 0.2 h each, field off; time-mean of the per-checkpoint residual
    metrics, spacings = [], []
    for nodes in (17, 25, 33, 49):
        grid = GridSpec(half_width=2.0, nodes=nodes)
        cfg = make_scenario(
            grid=grid,
            count=0,
            init=InitialDistributionSpec(kind="cold_lattice"),
            drift=(0.31, 0.17, -0.23),
            field_mode="off",
            time=TimeSpec(dt=0.2 * grid.spacing, t_end=3.2 * grid.spacing, checkpoint_every=1),
            g_profile=SpatialProfile(kind="gaussian", scale=0.5, center=(0.0, 0.0, 0.0)),
        )
        out = runner.run(cfg, tmp_path / f"n{nodes}")
        s = diagnostics.read_timeseries(out / runner.TIMESERIES_NAME)
        metrics.append(float(np.mean(s["continuity_res"][1:])))
        spacings.append(grid.spacing)
    slope = float(np.polyfit(np.log(spacings), np.log(metrics), 1)[0])

    ok = moment_drift <= 1e-12 and q_zero and slope >= 1.0
    _verdict(
        8,
        "free streaming preserves moments and refines continuity at order >= 1",
        ok,
        f"moment drift {moment_drift:.2e}, q identically zero: {q_zero}, "
        f"continuity order {slope:.2f}",
    )


def test_criterion_9_pusher_second_order():
    grid = GridSpec(half_width=2.0, nodes=16)
    field = VectorField(grid, -1.0 * grid.node_coords())
    x0 = np.array([0.5, 0.0, -0.3])
    v0 = np.array([0.0, 0.4, 0.0])
    errors = []
    for dt in (0.02, 0.01, 0.005):
        ens = ParticleEnsemble(
            positions=np.array([x0]), velocities=np.array([v0]), weights=np.array([1.0])
        )
        for _ in range(round(1.0 / dt)):
            pusher.step(ens, field, dt)
        exact = x0 * math.cos(1.0) + v0 * math.sin(1.0)
        errors.append(float(np.linalg.norm(ens.positions[0] - exact)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = all(abs(o - 2.0) <= 0.2 for o in orders)
    _verdict(
        9,
        "harmonic trajectory error halves twice per dt halving",
        ok,
        f"orders {orders[0]:.3f}/{orders[1]:.3f}",
    )


def test_criterion_10_epsilon_sweep_bound_and_reproducible_report(sweep_dir):
    report = runner.verify_path(sweep_dir)
    first = (sweep_dir / runner.REPORT_NAME).read_bytes()
    runner.verify_path(sweep_dir)
    second = (sweep_dir / runner.REPORT_NAME).read_bytes()

    fit = report["main_bound_fit"]
    fit_ok = fit["verdict"] == "pass"
    growth_ok = all(
        m["checks"]["time_growth"]["verdict"] == "pass" for m in report["members"]
    )
    ok = fit_ok and growth_ok and len(report["members"]) == 3 and first == second
    _verdict(
        10,
        "sweep fits under the exponential envelope with tame growth",
        ok,
        f"fit {fit['verdict']}, slope {fit.get('slope_a', float('nan')):.3f}, "
        f"worst residual {max(fit.get('residuals', [float('nan')])):+.3f} vs "
        f"margin {fit.get('envelope_margin', float('nan')):.3f}, "
        f"report byte-stable: {first == second}",
    )


def test_criterion_11_same_seed_runs_are_byte_identical(baseline_run, sweep_dir):
    # the eps = 0.5 sweep member re-runs the baseline scenario with the same
    # seed; every reduction is serial and in a fixed order
    member = sweep_dir / "eps_0.5"
    same_series = (
        baseline_run.dir / runner.TIMESERIES_NAME
    ).read_bytes() == (member / runner.TIMESERIES_NAME).read_bytes()
    same_fields = (
        baseline_run.dir / runner.FIELD_TABLE_NAME
    ).read_bytes() == (member / runner.FIELD_TABLE_NAME).read_bytes()
    ok = same_series and same_fields
    _verdict(
        11,
        "repeating the baseline seed reproduces the CSVs byte for byte",
        ok,
        f"timeseries identical: {same_series}, field table identical: {same_fields}",
    )
