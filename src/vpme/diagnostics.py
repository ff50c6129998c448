"""Per-checkpoint scalar diagnostics, running suprema, and CSV persistence.

A checkpoint is one ``DiagnosticsAccumulator.record`` call, which appends one
row to each table: COLUMNS (timeseries.csv) and FIELD_COLUMNS (fields.csv).
It computes each grid array both rows read once, and frees it after its
last reader, so a checkpoint works in at most three grids: |E|^2 per node
is reduced to its maximum and sum before exp(U) is built, the energy's
electron term works in place in a new grid of U, and exp(U) becomes the
electron density g e^U in place. The electron field E_hat = -grad Uhat
enters only ``ehat_sup``, so its gradient is taken here, once per
checkpoint, not in every field solve, one component at a time. The ions'
kinetic energy, speed moments and largest squared speed come from one
block-by-block pass, ``particles.speed_sums``, so no per-particle array is
built. ``electron_L1`` is the same number as the row's ``geU_L1``.

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

    ``kinetic`` is sum_p w_p |v_p|^2 and ``exp_u`` is exp(U) per node. ``e2``
    is |E|^2 per node, or its sum alone, as ``record`` passes it: only
    ``e2.sum()`` is read. The electron term works in place in the new grid
    of ``field_solution.u``.
    """
    vol = g.grid.cell_volume
    field_term = field_solution.epsilon**2 * float(e2.sum()) * vol
    w = field_solution.u.values
    w -= 1.0
    w *= g.values
    w *= exp_u
    electron = 2.0 * float(w.sum()) * vol
    return kinetic, field_term, electron, kinetic + field_term + electron


def _grad_sup(field):
    """max |grad u| over the nodes, |.|^2 summed x, y, then z as ``kernels.row_norm2`` sums it.

    One component at a time is differenced into one buffer and squared
    into the accumulated |grad u|^2, so no (N, N, N, 3) gradient is built.
    """
    u, h = field.values, field.grid.spacing
    acc = mesh.difference(u, h, 0, np.empty_like(u))
    acc *= acc
    buf = np.empty_like(u)
    for d in (1, 2):
        mesh.difference(u, h, d, buf)
        buf *= buf
        acc += buf
    return float(np.sqrt(acc.max()))


def field_table_row(t, field_solution, e2, g_exp_u):
    """One fields.csv row in FIELD_COLUMNS order, from |E|^2 and g e^U per node.

    ``e2`` is |E|^2 per node, or its maximum alone, as ``record`` passes it:
    only ``e2.max()`` is read.
    """
    vol = field_solution.uhat.grid.cell_volume
    return [
        t,
        float(np.sqrt(e2.max())),
        _grad_sup(field_solution.uhat),  # |E_hat|, E_hat = -grad Uhat
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
    r = rho_next.values - rho_prev.values
    r /= dt
    r += mesh.divergence(j_mid)
    r *= r
    return float(np.sqrt(r.sum() * rho_prev.grid.cell_volume))


class DiagnosticsAccumulator:
    """Builds both checkpoint tables; tracks running moment suprema."""

    def __init__(self, m1):
        self.k_list = (2.0, float(m1), 3.0)
        self.running = {k: 0.0 for k in self.k_list}
        self._rows = []
        self._field_rows = []

    def record(self, t, ensemble, field_solution, g, rho, continuity_res):
        """Append one checkpoint to both tables; returns the largest squared ion speed."""
        # (x*x + y*y) + z*z, the bits of (e**2).sum(axis=-1) at a fifth of its time
        e2 = kernels.row_norm2(field_solution.e.values)
        e2_max, e2_sum = e2.max(), e2.sum()
        del e2
        exp_u = np.exp(field_solution.u.values)
        kinetic, moments, v2max = particles.speed_sums(ensemble.velocities, ensemble.weights, self.k_list)
        kin, fld, ele, tot = energy(kinetic, field_solution, g, exp_u, e2_sum)
        # g e^U, the bits of g * exp(U): multiplication commutes
        g_exp_u = exp_u
        g_exp_u *= g.values
        del exp_u
        field_row = field_table_row(t, field_solution, e2_max, g_exp_u)
        del g_exp_u
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

