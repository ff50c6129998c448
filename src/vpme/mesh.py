"""Node-centered uniform grid on [-L, L]^3 and particle-grid transfer.

Nodes per axis include both endpoints, so the spacing is h = 2L/(N-1).
Deposition and interpolation use the same trilinear (cloud-in-cell) weights,
which keeps the pair adjoint: sum_i w_rho[i] E[i] equals the particle-side
sum of weights times gathered E for any grid field E.
"""

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels

MASS_WARN_TOL = 1e-6
SNAPSHOT_MAGIC = b"VPMEFLD1"


@dataclass(frozen=True)
class GridSpec:
    half_width: float
    nodes: int

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.nodes < 8:
            raise ValueError(f"need at least 8 nodes per axis, got {self.nodes}")

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.nodes - 1)

    @property
    def origin(self):
        return -self.half_width

    @property
    def cell_volume(self):
        return self.spacing**3

    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.nodes)

    def node_coords(self):
        """(N, N, N, 3) array of node positions, component-major (the ``kernels`` layout rule)."""
        ax = self.axis()
        return np.moveaxis(np.stack(np.meshgrid(ax, ax, ax, indexing="ij")), 0, -1)


def _check_values(grid, values, ncomp):
    shape = (grid.nodes,) * 3 + (() if ncomp == 1 else (ncomp,))
    if values.shape != shape:
        raise ValueError(f"field shape {values.shape} does not match grid {shape}")
    if not np.isfinite(values).all():
        raise ValueError("field contains non-finite values")


@dataclass
class ScalarField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        _check_values(self.grid, self.values, 1)


@dataclass
class VectorField:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = kernels.component_major(self.values)
        _check_values(self.grid, self.values, 3)


# ---------------------------------------------------------------------------
# particle <-> grid transfer
# ---------------------------------------------------------------------------


def deposit_density(ensemble, grid, cic):
    """Trilinear-deposited number density; updates ensemble.escaped_mass.

    ``cic`` is the CIC setup of the ensemble's positions (``kernels.cic_setup``).
    """
    raw = np.zeros((grid.nodes,) * 3)
    inbox = kernels.deposit(cic, ensemble.weights, raw)
    ensemble.escaped_mass = max(0.0, ensemble.total_weight - inbox)
    return ScalarField(grid, raw / grid.cell_volume)


def current_from_arrays(cic, velocities, weights, grid):
    """Trilinear-deposited current density of ``weights * velocities`` at the CIC setup ``cic``."""
    raw = kernels.component_major((grid.nodes,) * 3, zeros=True)
    kernels.deposit_vec(cic, weights, velocities, raw)
    return VectorField(grid, raw / grid.cell_volume)


# ---------------------------------------------------------------------------
# background density
# ---------------------------------------------------------------------------


def evaluate_g(profile, grid):
    """Background density on nodes, renormalized so sum(g) h^3 == 1 exactly.

    A RuntimeWarning reports raw grid mass off by more than MASS_WARN_TOL.
    Uniform balls are cell-averaged (16^3 midpoint points per cut cell) so the
    discrete mass converges at second order rather than stalling on the
    staircase boundary.
    """
    if profile.kind == "gaussian":
        vals = profile.density(grid.node_coords())
    else:
        vals = _ball_cell_average(profile, grid)
    raw_mass = float(vals.sum() * grid.cell_volume)
    if raw_mass <= 0.0:
        raise ValueError("background profile has no mass on the grid")
    if abs(raw_mass - 1.0) > MASS_WARN_TOL:
        warnings.warn(
            f"background grid mass {raw_mass!r} deviates from 1 by more than "
            f"{MASS_WARN_TOL}; renormalizing",
            RuntimeWarning,
            stacklevel=2,
        )
    return ScalarField(grid, vals / raw_mass)


def _ball_cell_average(profile, grid):
    center = np.asarray(profile.center)
    radius = profile.scale
    peak = 3.0 / (4.0 * math.pi * radius**3)
    h = grid.spacing
    dist = np.linalg.norm(grid.node_coords() - center, axis=-1)
    half_diag = 0.5 * h * math.sqrt(3.0)
    vals = np.where(dist <= radius - half_diag, peak, 0.0)
    cut = np.argwhere(np.abs(dist - radius) < half_diag)
    if cut.size:
        offs = (np.arange(16) + 0.5) * (h / 16) - 0.5 * h
        ox, oy, oz = np.meshgrid(offs, offs, offs, indexing="ij")
        cloud = np.stack([ox, oy, oz], axis=-1).reshape(-1, 3)
        ax = grid.axis()
        for i, j, k in cut:
            pts = np.array([ax[i], ax[j], ax[k]]) + cloud
            frac = (((pts - center) ** 2).sum(axis=1) <= radius**2).mean()
            vals[i, j, k] = peak * frac
    return vals


# ---------------------------------------------------------------------------
# difference stencils
# ---------------------------------------------------------------------------


def difference(u, h, axis, out):
    """Second-order difference of ``u`` (N, N, N) along ``axis`` into the C-contiguous ``out``.

    Central inside, one-sided on the two faces of the axis. Flat index: the
    node (i, j, k) of the C-ordered grid is i N^2 + j N + k, so its
    neighbours along the axis sit at the flat index plus or minus the stride
    s = N^2, N or 1. The central difference is taken for every flat index
    from s to N^3 - s at once, from two contiguous slices of the flat
    values. The nodes on the two faces of the axis get a wrapped, meaningless
    value there, which the one-sided differences then overwrite. Returns
    ``out``.
    """
    s = u.shape[0] ** (2 - axis)
    flat = u.reshape(-1)
    np.divide(flat[2 * s:] - flat[: -2 * s], 2.0 * h, out=out.reshape(-1, copy=False)[s:-s])
    u, faces = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
    faces[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    faces[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return out


def gradient(field):
    """Second-order gradient of a ScalarField, (N, N, N, 3), one ``difference`` per component."""
    u = field.values
    h = field.grid.spacing
    out = kernels.component_major(u.shape)
    for d in range(3):
        difference(u, h, d, out[..., d])
    return out


def divergence(field):
    h = field.grid.spacing
    out = np.zeros(field.values.shape[:3])
    buf = np.empty_like(out)
    for d in range(3):
        out += difference(field.values[..., d], h, d, buf)
    return out


# ---------------------------------------------------------------------------
# binary snapshots
# ---------------------------------------------------------------------------


def write_field(path, name, field):
    """Little-endian snapshot: magic, name, nodes, half_width, h, ncomp, data."""
    values = field.values
    ncomp = 1 if values.ndim == 3 else values.shape[3]
    encoded = name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(
            struct.pack(
                "<IddI", field.grid.nodes, field.grid.half_width, field.grid.spacing, ncomp
            )
        )
        fh.write(np.asarray(values, dtype="<f8").tobytes(order="C"))


def read_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(SNAPSHOT_MAGIC))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: not a field snapshot (bad magic {magic!r})")
        (name_len,) = struct.unpack("<I", fh.read(4))
        name = fh.read(name_len).decode("utf-8")
        nodes, half_width, spacing, ncomp = struct.unpack("<IddI", fh.read(24))
        grid = GridSpec(half_width=half_width, nodes=nodes)
        if not math.isclose(grid.spacing, spacing, rel_tol=1e-12):
            raise ValueError(f"{path}: header spacing {spacing} inconsistent with grid")
        count = nodes**3 * ncomp
        raw = fh.read(count * 8)
        if len(raw) != count * 8:
            raise ValueError(f"{path}: truncated snapshot")
        data = np.frombuffer(raw, dtype="<f8").astype(float)
        shape = (nodes,) * 3 + (() if ncomp == 1 else (ncomp,))
        values = data.reshape(shape)
    if ncomp == 1:
        return name, ScalarField(grid, values)
    return name, VectorField(grid, values)
