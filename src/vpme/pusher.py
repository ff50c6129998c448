"""Kick-drift-kick leapfrog advance of the particle characteristics.

Each step kicks with the frozen field at the pre-drift position, drifts a
full dt, then kicks with the field at the post-drift position. The per-kick
|E| values (the very ones applied to the velocity) are accumulated into each
particle's running field integral, half a step's worth per kick, so the
integral dominates the realized velocity deviation by construction.

Both kicks gather through a cloud-in-cell setup (``kernels.cic_setup``) of
the current positions, which ``step`` refills in place with the setup of
the drifted positions. The caller builds it once and hands it to every
step. On a checkpoint step the opening pass (kick, drift) leaves in it the
setup of the half-step positions, where the midpoint current is deposited
before the closing pass (kick).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, mesh


@dataclass(frozen=True)
class TimeSpec:
    dt: float
    t_end: float
    checkpoint_every: int = 100

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_end >= self.dt and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be at least one step, got {self.t_end}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")

    @property
    def steps(self):
        return max(1, round(self.t_end / self.dt))


def step(ensemble, e, dt, cic, midpoint=False):
    """Advance one kick-drift-kick step in place in the field ``e`` (a VectorField).

    ``cic`` is the CIC setup of the current positions; on return it holds
    the setup of the drifted positions. With ``midpoint``, the step deposits
    the midpoint current between its two kicks, at the setup of the
    half-step positions ``x + 0.5 dt v`` with the half-step velocities, and
    returns it as a VectorField; without it, the step returns None.
    """

    def current():
        return mesh.current_from_arrays(cic, ensemble.velocities, ensemble.weights, e.grid)

    return kernels.push_kdk(
        ensemble.positions,
        ensemble.velocities,
        ensemble.field_integral,
        e.values,
        e.grid.origin,
        e.grid.spacing,
        dt,
        cic,
        current if midpoint else None,
    )


def stability_check(v2max, e, dt):
    """Advisory strings for too-long steps; empty list means ok, never fatal.

    ``v2max`` is the largest squared ion speed, as ``DiagnosticsAccumulator.record`` returns it.
    """
    advisories = []
    grid = e.grid
    vmax = math.sqrt(v2max)
    if dt * vmax > 0.5 * grid.spacing:
        advisories.append(
            f"dt*max|v| = {dt * vmax:.3e} exceeds half a cell ({0.5 * grid.spacing:.3e}); "
            "particles cross cells within a step"
        )
    grad_max = _max_abs_gradient(e)
    if dt * dt * grad_max > 0.1:
        advisories.append(
            f"dt^2*max|grad E| = {dt * dt * grad_max:.3e} exceeds 0.1; "
            "field varies too fast for the step size"
        )
    return advisories


def _max_abs_gradient(e):
    """max over nodes, c and d of |dE_c/dx_d|, as ``mesh.gradient`` differences them.

    Each derivative is taken into one reused (N, N, N) buffer and reduced
    there, so no (N, N, N, 3) gradient array is built; max and negation are
    exact, so the value is the one the full gradients give.
    """
    h = e.grid.spacing
    buf = np.empty(e.values.shape[:3])
    out = 0.0
    for c in range(3):
        for d in range(3):
            mesh.difference(e.values[..., c], h, d, buf)
            out = max(out, float(buf.max()), -float(buf.min()))
    return out
