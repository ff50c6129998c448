"""Inequality audits over recorded time series and epsilon sweeps.

Every check is a pure function of persisted tables (plus the run metadata
for scenario parameters), so re-running the verifier on saved artifacts
reproduces its report byte for byte.

Audited properties:
  - moment chain: m_k(t) <= 2^k (m_k(0) + q_star(t)^k), exact at particle
    level, gated at ratio 1 + 1e-9;
  - ordering q_star <= q_tt + 1e-8 (the realized velocity deviation never
    beats the accumulated field integral);
  - density gate rho_inf/(1 + q_star^3) bounded by 10x its initial value on
    power-law runs;
  - single-run growth: Q(t,t) against B (t^(1/2) + t^(1+omega));
  - sweep envelope: log Q(T,T) - log(T^(1/2) + T^(1+omega)) fitted linearly
    in 1/eps^2; all points must sit within 10% above the fit;
  - recorded (non-gating) trend: sup|E_hat| against the same
    exponential-in-1/eps^2 shape (the sweep report also tables the
    screened-electron norms per eps).
"""

import json
import math

import numpy as np

MOMENT_RATIO_TOL = 1e-9
Q_ORDER_TOL = 1e-8
DENSITY_FACTOR = 10.0
ENVELOPE_MARGIN = math.log(1.1)
GROWTH_FACTOR = 3.0
Q_LOG_FLOOR = 1e-12


def _require(series, *columns):
    missing = [c for c in columns if c not in series]
    if missing:
        raise KeyError(f"series is missing required columns {missing}")


def check_moment_bound(series, k, column):
    """Audit m_k(t) <= 2^k (m_k(0) + q_star(t)^k) at every checkpoint."""
    _require(series, column, "q_star")
    m = series[column]
    q = series["q_star"]
    denom = 2.0**k * (m[0] + q**k)
    # denom vanishes only for an initially empty moment with q_star still 0;
    # the bound then forces m == 0 too, anything else is an accounting bug
    safe = np.where(denom > 0.0, denom, 1.0)
    ratios = np.where(denom > 0.0, m / safe, np.where(m > 0.0, np.inf, 0.0))
    max_ratio = float(ratios.max())
    return {
        "k": k,
        "column": column,
        "max_ratio": max_ratio,
        "threshold": 1.0 + MOMENT_RATIO_TOL,
        "verdict": "pass" if max_ratio <= 1.0 + MOMENT_RATIO_TOL else "fail",
    }


def check_q_order(series):
    """Audit q_star <= q_tt + Q_ORDER_TOL at every checkpoint."""
    _require(series, "q_star", "q_tt")
    excess = float((series["q_star"] - series["q_tt"]).max())
    return {
        "max_excess": excess,
        "tolerance": Q_ORDER_TOL,
        "verdict": "pass" if excess <= Q_ORDER_TOL else "fail",
    }


def check_density_bound(series, applicable):
    """Audit rho_inf(t)/(1 + q_star(t)^3) <= 10 x its t=0 value.

    The cubic law presumes power-law initial data; for other runs the ratio
    table is still reported but the verdict is "not-applicable".
    """
    _require(series, "rho_inf", "q_star")
    r = series["rho_inf"] / (1.0 + series["q_star"] ** 3)
    fitted_c = float(r.max())
    threshold = DENSITY_FACTOR * float(r[0])
    if not applicable:
        verdict = "not-applicable"
    else:
        verdict = "pass" if fitted_c <= threshold else "fail"
    return {
        "fitted_C": fitted_c,
        "initial_ratio": float(r[0]),
        "threshold": threshold,
        "verdict": verdict,
    }


def check_time_growth(series, omega):
    """Audit Q(t,t) against B (t^(1/2) + t^(1+omega)) along one run.

    B is the largest observed ratio; the gate is that the ratio shows no
    blow-up: its max over the second half of the checkpoints stays within
    GROWTH_FACTOR of the first-half max.
    """
    _require(series, "t", "q_tt")
    if len(series["t"]) < 10:
        raise ValueError(f"time-growth check needs >= 10 checkpoints, got {len(series['t'])}")
    mask = series["t"] > 0.0
    t = series["t"][mask]
    q = series["q_tt"][mask]
    ratios = q / (np.sqrt(t) + t ** (1.0 + omega))
    half = len(ratios) // 2
    first = float(ratios[:half].max())
    second = float(ratios[half:].max())
    return {
        "B": float(ratios.max()),
        "omega": omega,
        "first_half_max": first,
        "second_half_max": second,
        "growth_factor": GROWTH_FACTOR,
        "verdict": "pass" if second <= GROWTH_FACTOR * first else "fail",
    }


def _envelope_fit(x, y):
    """Least-squares line with the all-points-under-envelope verdict."""
    a, b = np.polyfit(x, y, 1)
    fit = a * np.asarray(x) + b
    residuals = [float(v) for v in (np.asarray(y) - fit)]
    ok = all(r <= ENVELOPE_MARGIN + 1e-12 for r in residuals)
    return float(a), float(b), residuals, ok


def fit_main_bound(sweep_results, omega):
    """Fit log Q(T,T) - log(T^(1/2) + T^(1+omega)) linearly in 1/eps^2.

    ``sweep_results`` entries need keys epsilon, q_final, t_final. The
    verdict passes when every point lies within 10% above the fitted line
    (the bound shape only constrains from above).
    """
    if len(sweep_results) < 3:
        raise ValueError(f"envelope fit needs >= 3 epsilon values, got {len(sweep_results)}")
    if not (0.0 < omega < 1.0):
        raise ValueError(f"omega must be in (0, 1), got {omega}")
    x = [1.0 / r["epsilon"] ** 2 for r in sweep_results]
    y = [
        math.log(max(r["q_final"], Q_LOG_FLOOR))
        - math.log(math.sqrt(r["t_final"]) + r["t_final"] ** (1.0 + omega))
        for r in sweep_results
    ]
    a, b, residuals, ok = _envelope_fit(x, y)
    return {
        "omega": omega,
        "epsilons": [r["epsilon"] for r in sweep_results],
        "slope_a": a,
        "log_A": b,
        "residuals": residuals,
        "envelope_margin": ENVELOPE_MARGIN,
        "verdict": "pass" if ok else "fail",
    }


def ehat_trend(entries):
    """Record sup|E_hat| against the eps^-2 exp(c0 eps^-2) shape (non-gating)."""
    table = [
        {"epsilon": e["epsilon"], "ehat_sup": e["ehat_sup"]} for e in entries
    ]
    usable = [e for e in entries if e["ehat_sup"] > 0.0]
    if len(usable) < 3:
        return {"table": table, "fit": None, "verdict": "insufficient-data"}
    x = [1.0 / e["epsilon"] ** 2 for e in usable]
    y = [math.log(e["ehat_sup"] * e["epsilon"] ** 2) for e in usable]
    c0, logc, residuals, ok = _envelope_fit(x, y)
    return {
        "table": table,
        "fit": {"c0": c0, "log_C": logc, "residuals": residuals},
        "verdict": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def run_checks(series, meta):
    """All single-run audits; omega, m1 and power-law applicability read from metadata."""
    m1 = float(meta["m1"])
    omega = float(meta["omega"])
    moment = [
        check_moment_bound(series, 2.0, "m2"),
        check_moment_bound(series, m1, "mk_m1"),
        check_moment_bound(series, 3.0, "m3"),
    ]
    density = check_density_bound(series, applicable=meta.get("init_kind") == "power_law")
    growth = check_time_growth(series, omega)
    q_order = check_q_order(series)
    gating = [c["verdict"] for c in moment] + [q_order["verdict"], growth["verdict"]]
    if density["verdict"] != "not-applicable":
        gating.append(density["verdict"])
    return {
        "moment_bound": moment,
        "density_bound": density,
        "q_order": q_order,
        "time_growth": growth,
        "verdict": "pass" if all(v == "pass" for v in gating) else "fail",
    }


def emit_report(report, path):
    """Canonical JSON for every artifact: sorted keys, two-space indent,
    trailing newline, and a ValueError for a non-finite float."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text
