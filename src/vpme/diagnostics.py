"""Per-checkpoint scalar diagnostics, running suprema, and CSV persistence.

A checkpoint is one ``DiagnosticsAccumulator.record`` call, which appends one
row to each table: COLUMNS (timeseries.csv) and FIELD_COLUMNS (fields.csv).
It computes each grid array both rows read once: exp(U), the electron
density g e^U and |E|^2 per node. The ions' kinetic energy, speed moments
and largest squared speed come from one block-by-block pass,
``particles.speed_sums``, so no per-particle array is built. The electron field
E_hat = -grad Uhat enters only ``ehat_sup``, so its gradient is taken here,
once per checkpoint, not in every field solve. ``electron_L1`` is the same
number as the row's ``geU_L1``.

Both schemas are frozen. Floats are written with repr() (shortest round-trip
form), so identical runs produce byte-identical files and parsing loses
nothing.
"""

import numpy as np

from . import kernels, mesh, particles

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


class EmptyTableError(SchemaError):
    """A persisted table has its header but no rows, as a run aborted at t = 0 leaves it."""


def energy(kinetic, field_solution, g, exp_u, e2):
    """Discrete energy functional split: (kinetic, field, electron, total).

    ``kinetic`` is sum_p w_p |v_p|^2, ``exp_u`` is exp(U) and ``e2`` is |E|^2
    per node.
    """
    vol = g.grid.cell_volume
    field_term = field_solution.epsilon**2 * float(e2.sum()) * vol
    u = field_solution.u.values
    electron = 2.0 * float((((u - 1.0) * g.values) * exp_u).sum()) * vol
    return kinetic, field_term, electron, kinetic + field_term + electron


def field_table_row(t, field_solution, e2, g_exp_u):
    """One fields.csv row in FIELD_COLUMNS order, from |E|^2 and g e^U per node."""
    vol = field_solution.u.grid.cell_volume
    grad_uhat = mesh.gradient(field_solution.uhat)  # -E_hat
    return [
        t,
        float(np.sqrt(e2.max())),
        float(np.sqrt(kernels.row_norm2(grad_uhat).max())),
        float(field_solution.uhat.values.max()),
        float(g_exp_u.sum() * vol),
        float((g_exp_u**2).sum() * vol) ** 0.5,
        float((g_exp_u**3).sum() * vol) ** (1.0 / 3.0),
        float(g_exp_u.max()),
    ]


def continuity_residual(rho_prev, rho_next, j_mid, dt):
    """L2 grid norm of the discrete continuity defect over one step."""
    if rho_prev.grid != rho_next.grid or rho_prev.grid != j_mid.grid:
        raise ValueError("continuity residual needs all fields on one grid")
    r = (rho_next.values - rho_prev.values) / dt + mesh.divergence(j_mid)
    return float(np.sqrt((r * r).sum() * rho_prev.grid.cell_volume))


class DiagnosticsAccumulator:
    """Builds both checkpoint tables; tracks running moment suprema."""

    def __init__(self, m1):
        self.k_list = (2.0, float(m1), 3.0)
        self.running = {k: 0.0 for k in self.k_list}
        self._rows = []
        self._field_rows = []

    def record(self, t, ensemble, field_solution, g, rho, continuity_res):
        """Append one checkpoint to both tables; returns the largest squared ion speed."""
        exp_u = np.exp(field_solution.u.values)
        g_exp_u = g.values * exp_u
        e = field_solution.e.values
        # (x*x + y*y) + z*z, the bits of (e**2).sum(axis=-1) at a fifth of its time
        e2 = kernels.row_norm2(e)
        kinetic, moments, v2max = particles.speed_sums(ensemble.velocities, ensemble.weights, self.k_list)
        field_row = field_table_row(t, field_solution, e2, g_exp_u)
        kin, fld, ele, tot = energy(kinetic, field_solution, g, exp_u, e2)
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
            field_row[FIELD_COLUMNS.index("geU_L1")],
            field_solution.gauss_imbalance,
            field_solution.newton_iterations,
            field_solution.residual_inf,
            continuity_res,
            ensemble.escaped_mass,
        ])
        self._field_rows.append(field_row)
        return v2max

    def rows(self):
        """The recorded timeseries.csv rows, each in COLUMNS order."""
        return self._rows

    def field_rows(self):
        """The recorded fields.csv rows, each in FIELD_COLUMNS order."""
        return self._field_rows


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


def read_table(path, expected_columns):
    """Parse a CSV with the header ``expected_columns`` into a dict of float arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty table")
    header = lines[0].split(",")
    if header != list(expected_columns):
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
        raise EmptyTableError(f"{path}: table has a header but no rows")
    arr = np.array(data)
    return {name: arr[:, j] for j, name in enumerate(header)}


def write_timeseries(path, accumulator):
    write_table(path, COLUMNS, accumulator.rows())


def read_timeseries(path):
    return read_table(path, COLUMNS)

