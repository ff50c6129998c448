"""Per-checkpoint scalar diagnostics, running suprema, and CSV persistence.

The time-series schema is frozen: COLUMNS below, one row per checkpoint.
Floats are written with repr() (shortest round-trip form), so identical runs
produce byte-identical files and parsing loses nothing.
"""

import numpy as np

from . import fieldsolve, mesh, particles

COLUMNS = [
    "t",
    "kinetic",
    "field",
    "electron",
    "total",
    "m2",
    "mk_m1",
    "m3",
    "Mk2",
    "Mk_m1",
    "Mk3",
    "q_tt",
    "q_star",
    "rho_inf",
    "rho_53",
    "electron_L1",
    "gauss_imbalance",
    "newton_iters",
    "residual_inf",
    "continuity_res",
    "escaped_mass",
]

FIELD_COLUMNS = [
    "t",
    "e_sup",
    "ehat_sup",
    "uhat_max",
    "geU_L1",
    "geU_L2",
    "geU_L3",
    "geU_Linf",
]


class SchemaError(ValueError):
    """A persisted table does not match its frozen schema."""


def energy(ensemble, field_solution, g):
    """Discrete energy functional split: (kinetic, field, electron, total)."""
    kinetic = float((ensemble.weights * (ensemble.velocities**2).sum(axis=1)).sum())
    vol = g.grid.cell_volume
    e2 = (field_solution.e.values**2).sum(axis=-1)
    field_term = field_solution.epsilon**2 * float(e2.sum()) * vol
    u = field_solution.u.values
    electron = 2.0 * float(((u - 1.0) * g.values * np.exp(u)).sum()) * vol
    return kinetic, field_term, electron, kinetic + field_term + electron


def continuity_residual(rho_prev, rho_next, j_mid, dt):
    """L2 grid norm of the discrete continuity defect over one step."""
    if rho_prev.grid != rho_next.grid or rho_prev.grid != j_mid.grid:
        raise ValueError("continuity residual needs all fields on one grid")
    r = (rho_next.values - rho_prev.values) / dt + mesh.divergence(j_mid)
    return float(np.sqrt((r * r).sum() * rho_prev.grid.cell_volume))


class DiagnosticsAccumulator:
    """Builds the checkpoint series; tracks running moment suprema."""

    def __init__(self, m1):
        self.k_list = (2.0, float(m1), 3.0)
        self.running = {k: 0.0 for k in self.k_list}
        self._rows = []

    def record(self, t, ensemble, field_solution, g, rho, continuity_res):
        kin, fld, ele, tot = energy(ensemble, field_solution, g)
        moments = particles.instantaneous_moments(ensemble, self.k_list)
        for k in self.k_list:
            self.running[k] = max(self.running[k], moments[k])
        k2, km, k3 = self.k_list
        self._rows.append([  # in COLUMNS order
            t,
            kin,
            fld,
            ele,
            tot,
            moments[k2],
            moments[km],
            moments[k3],
            self.running[k2],
            self.running[km],
            self.running[k3],
            particles.q_tt(ensemble),
            particles.q_star(ensemble),
            float(rho.values.max()),
            float((rho.values ** (5.0 / 3.0)).sum() * rho.grid.cell_volume) ** 0.6,
            float((g.values * np.exp(field_solution.u.values)).sum() * g.grid.cell_volume),
            field_solution.gauss_imbalance,
            field_solution.newton_iterations,
            field_solution.residual_inf,
            continuity_res,
            ensemble.escaped_mass,
        ])

    def rows(self):
        """The recorded rows, each in COLUMNS order."""
        return self._rows


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _format_cell(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_table(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            if len(row) != len(columns):
                raise SchemaError(f"row width {len(row)} does not match {len(columns)} columns")
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def read_table(path, expected_columns=None):
    """Parse a CSV into a dict of float arrays; strict about the schema."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty table")
    header = lines[0].split(",")
    if expected_columns is not None and header != list(expected_columns):
        raise SchemaError(
            f"{path}: header {header!r} does not match expected columns {list(expected_columns)!r}"
        )
    data = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise SchemaError(f"{path}:{i}: expected {len(header)} fields, got {len(cells)}")
        try:
            data.append([float(c) for c in cells])
        except ValueError as exc:
            raise SchemaError(f"{path}:{i}: non-numeric cell ({exc})") from exc
    if not data:
        raise SchemaError(f"{path}: table has a header but no rows")
    arr = np.array(data)
    return {name: arr[:, j] for j, name in enumerate(header)}


def write_timeseries(path, accumulator):
    write_table(path, COLUMNS, accumulator.rows())


def read_timeseries(path):
    return read_table(path, expected_columns=COLUMNS)


def field_table_row(t, field_solution, g):
    norms = fieldsolve.electron_density_norms(field_solution.u, g)
    return [
        t,
        fieldsolve.e_sup(field_solution),
        fieldsolve.ehat_sup(field_solution),
        float(field_solution.uhat.values.max()),
        norms["L1"],
        norms["L2"],
        norms["L3"],
        norms["Linf"],
    ]
