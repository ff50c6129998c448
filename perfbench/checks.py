"""Checks on one scenario run's artifacts, computed apart from vpme.

Nothing here imports vpme. The snapshot reader, the 7-point stencil, the
gradient and the normalised Gaussian background are written out again from
their documented definitions, and every check is a property the method must
have, never a comparison with stored output:

- eps^2 Lap_h Uhat = g exp(Ubar + Uhat) on the interior, to the solver's
  1e-10 contract relative to max(1, max g e^U);
- Uhat <= 1e-8 (the electron correction is nonpositive);
- -eps^2 Lap_h Ubar >= 0 up to round-off (it is the deposited density);
- U = Ubar + Uhat, and E = -grad U with second-order differences;
- q_star <= q_tt, the moment chain m_k <= 2^k (m_k(0) + q_star^k) and an
  energy drift within the acceptance suite's 2%.

The fields are checked at every checkpoint that wrote snapshots.
"""

import csv
import json
import math
import struct

import numpy as np

CONTRACT_RTOL = 1e-10
UHAT_MAX = 1e-8
# the ion solve's defect is at most 1e-10 of ||rho||_2 in the L2 norm, so no
# node can sit further below zero than that; 2x margin
UBAR_SIGN_RTOL = 2e-10
# rounding of two second-order difference formulas, each within a few ulps
# of max|U| / h
GRAD_RTOL = 1e-13
Q_ORDER_TOL = 1e-8
MOMENT_RATIO_TOL = 1e-9
ENERGY_DRIFT = 0.02


def read_snapshot(path):
    """Little-endian: magic, name, nodes, half_width, h, ncomp, float64 data."""
    raw = path.read_bytes()
    if raw[:8] != b"VPMEFLD1":
        raise ValueError(f"{path}: bad magic")
    (name_len,) = struct.unpack_from("<I", raw, 8)
    at = 12 + name_len
    nodes, half_width, h, ncomp = struct.unpack_from("<IddI", raw, at)
    data = np.frombuffer(raw, dtype="<f8", offset=at + 24)
    shape = (nodes,) * 3 + ((ncomp,) if ncomp > 1 else ())
    return {"nodes": nodes, "half_width": half_width, "h": h, "values": data.reshape(shape)}


def gaussian_background(nodes, half_width):
    """Unit Gaussian on the nodes, scaled so that sum(g) h^3 = 1."""
    ax = np.linspace(-half_width, half_width, nodes)
    r2 = ax[:, None, None] ** 2 + ax[None, :, None] ** 2 + ax[None, None, :] ** 2
    g = np.exp(-0.5 * r2)
    h = 2.0 * half_width / (nodes - 1)
    return g / (g.sum() * h**3)


def lap7(u, h):
    """7-point Laplacian on the interior nodes."""
    return (
        u[2:, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1]
        + u[1:-1, 2:, 1:-1] + u[1:-1, :-2, 1:-1]
        + u[1:-1, 1:-1, 2:] + u[1:-1, 1:-1, :-2]
        - 6.0 * u[1:-1, 1:-1, 1:-1]
    ) / (h * h)


def check_fields(run_dir, step, params, g):
    """Problems found in the snapshots of one checkpoint (empty if none)."""
    snaps = {
        name: read_snapshot(run_dir / "snapshots" / f"step_{step:06d}_{name}.field")
        for name in ("u", "ubar", "uhat", "e")
    }
    problems = []
    h = 2.0 * params["half_width"] / (params["nodes"] - 1)
    for name, snap in snaps.items():
        if snap["nodes"] != params["nodes"] or not math.isclose(snap["h"], h, rel_tol=1e-12):
            problems.append(f"step {step}: {name} snapshot has the wrong grid")
    if problems:
        return problems
    u, ubar, uhat, e = (snaps[n]["values"] for n in ("u", "ubar", "uhat", "e"))
    eps2 = params["epsilon"] ** 2
    u_scale = max(1.0, float(np.abs(u).max()))

    split = float(np.abs(u - (ubar + uhat)).max())
    if split > 1e-14 * u_scale:
        problems.append(f"step {step}: |U - (Ubar + Uhat)| = {split:.3e}")

    electrons = g * np.exp(ubar + uhat)
    residual = eps2 * lap7(uhat, h) - electrons[1:-1, 1:-1, 1:-1]
    worst = float(np.abs(residual).max())
    scale = max(1.0, float(electrons.max()))
    if worst > CONTRACT_RTOL * scale:
        problems.append(f"step {step}: electron residual {worst:.3e} > {CONTRACT_RTOL} x {scale:.3e}")

    top = float(uhat.max())
    if top > UHAT_MAX:
        problems.append(f"step {step}: max Uhat = {top:.3e} > {UHAT_MAX}")

    rho = -eps2 * lap7(ubar, h)
    floor = -UBAR_SIGN_RTOL * math.sqrt(float((rho * rho).sum()))
    if float(rho.min()) < floor:
        problems.append(f"step {step}: -eps^2 Lap Ubar reaches {float(rho.min()):.3e} < {floor:.3e}")

    grad = np.stack(np.gradient(u, h, edge_order=2), axis=-1)
    gap = float(np.abs(e + grad).max())
    if gap > GRAD_RTOL * u_scale / h:
        problems.append(f"step {step}: |E + grad U| = {gap:.3e}")
    return problems


def read_timeseries(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def check_series(series, params, checkpoints):
    problems = []
    t_expected = np.array(checkpoints) * params["dt"]
    if len(series["t"]) != len(checkpoints) or not np.allclose(series["t"], t_expected, rtol=0, atol=1e-12):
        return [f"timeseries rows at t = {series['t'].tolist()}, expected {t_expected.tolist()}"]
    q_star, q_tt = series["q_star"], series["q_tt"]
    excess = float((q_star - q_tt).max())
    if excess > Q_ORDER_TOL:
        problems.append(f"q_star exceeds q_tt by {excess:.3e}")
    for k, column in ((2.0, "m2"), (params["m1"], "mk_m1"), (3.0, "m3")):
        m = series[column]
        ratio = float((m / (2.0**k * (m[0] + q_star**k))).max())
        if ratio > 1.0 + MOMENT_RATIO_TOL:
            problems.append(f"moment chain k={k}: m_k / bound reaches {ratio!r}")
    total = series["total"]
    drift = float(np.abs(total - total[0]).max() / abs(total[0]))
    if drift > ENERGY_DRIFT:
        problems.append(f"energy drift {drift:.3e} > {ENERGY_DRIFT}")
    return problems


def check_run(run_dir, params, checkpoints):
    """All problems found in one finished run's artifacts."""
    try:
        with open(run_dir / "run_meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta["status"] != "ok" or meta["particle_count"] != params["count"]:
            return [f"run_meta: status {meta['status']!r}, {meta['particle_count']} particles"]
        problems = check_series(read_timeseries(run_dir / "timeseries.csv"), params, checkpoints)
        g = gaussian_background(params["nodes"], params["half_width"])
        for step in checkpoints:
            problems += check_fields(run_dir, step, params, g)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    return problems
