"""Ion macro-particle ensemble, initial distributions, and velocity diagnostics.

Tracked per particle besides phase-space state: the initial velocity (for the
max velocity deviation sup|v(t) - v(0)|) and the running time integral of |E|
along the trajectory (whose max over particles bounds that deviation from
above, by the triangle inequality applied to each kick). A sampled ensemble
stores its one weight once, as a read-only view of every particle.

The velocity diagnostics work block by block (the ``kernels`` block rule):
``speed_sums`` computes |v|^2, |v| and its powers per block and sums them
on numpy's pairwise tree (``kernels.pairwise_sum``), so they hold the bits
of whole-array sums and no array grows with the particle count.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .profiles import SpatialProfile

INIT_KINDS = ("maxwellian", "power_law", "cold_lattice")


@dataclass(frozen=True)
class InitialDistributionSpec:
    """Validated parameters of the initial ion distribution.

    ``sigma`` applies to ``maxwellian``; ``r`` (tail exponent) and ``v_max``
    (speed cutoff) to ``power_law``; ``m1`` is the extra moment order tracked
    by the diagnostics and must exceed 2 so the moment hierarchy closes.
    ``cold_lattice`` places one motionless particle per grid node weighted by
    the background and takes no sampling parameters.
    """

    kind: str
    spatial: SpatialProfile | None = None
    sigma: float = 1.0
    r: float = 4.0
    v_max: float = 20.0
    m1: float = 2.5

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}, expected one of {INIT_KINDS}")
        if not (self.m1 > 2.0 and math.isfinite(self.m1)):
            raise ValueError(f"tracked moment order m1 must exceed 2, got {self.m1}")
        if self.kind == "maxwellian":
            if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
                raise ValueError(f"maxwellian sigma must be positive and finite, got {self.sigma}")
        if self.kind == "power_law":
            if not (self.r > 3.0 and math.isfinite(self.r)):
                raise ValueError(
                    f"power-law tail exponent must exceed 3 (finite third moment), got {self.r}"
                )
            if not (self.v_max > 0.0 and math.isfinite(self.v_max)):
                raise ValueError(f"power-law speed cutoff must be positive and finite, got {self.v_max}")
        if self.kind != "cold_lattice" and self.spatial is None:
            raise ValueError(f"init kind {self.kind!r} requires a spatial profile")


@dataclass
class ParticleEnsemble:
    positions: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray
    initial_velocities: np.ndarray = field(init=False)
    field_integral: np.ndarray = field(init=False)
    escaped_mass: float = field(init=False)

    def __post_init__(self):
        self.positions = kernels.component_major(self.positions)
        self.velocities = kernels.component_major(self.velocities)
        # asarray, so that the stride-0 weights of a sampled ensemble stay a view
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.positions.shape[0]
        if n < 1:
            raise ValueError("ensemble needs at least one particle")
        if self.positions.shape != (n, 3) or self.velocities.shape != (n, 3):
            raise ValueError("positions and velocities must both be (n, 3)")
        if self.weights.shape != (n,):
            raise ValueError("weights must be (n,)")
        # the deposits give an escaped particle zero weight by multiplying its
        # weight by zero, which an infinite weight would turn into NaN
        if not ((self.weights > 0.0).all() and np.isfinite(self.weights).all()):
            raise ValueError("particle weights must all be positive and finite")
        self.initial_velocities = self.velocities.copy(order="K")
        self.field_integral = np.zeros(n)
        self.escaped_mass = 0.0

    @property
    def count(self):
        return self.positions.shape[0]

    @property
    def total_weight(self):
        return float(self.weights.sum())


# ---------------------------------------------------------------------------
# velocity diagnostics
# ---------------------------------------------------------------------------


def speed_sums(velocities, weights, ks):
    """(sum_p w_p |v_p|^2, {k: sum_p w_p |v_p|^k} for each k in ks, max_p |v_p|^2), block by block.

    Each sum has the bits of the whole-array numpy sum (``kernels.pairwise_sum``);
    |v|^2 is ``kernels.row_norm2``. A NaN speed makes the maximum NaN.
    """
    maxima = []

    def leaf(lo, hi):
        v2 = kernels.row_norm2(velocities[lo:hi])
        maxima.append(v2.max())
        w = weights[lo:hi]
        speed = np.sqrt(v2)
        return np.array([(w * v2).sum()] + [(w * speed**k).sum() for k in ks])

    sums = kernels.pairwise_sum(weights.shape[0], leaf)
    return float(sums[0]), {k: float(s) for k, s in zip(ks, sums[1:])}, float(np.max(maxima))


def q_star(ensemble):
    """Largest velocity deviation from t=0: max_p |v_p - v_p(0)|, block by block."""
    v, v0 = ensemble.velocities, ensemble.initial_velocities
    # max is exact, so the block maxima's max is the whole array's; sqrt is
    # monotone and correctly rounded: sqrt(max) == max(sqrt) bitwise
    dv2 = [kernels.row_norm2(v[sl] - v0[sl]).max() for sl in kernels.block_slices(v.shape[0])]
    return float(np.sqrt(np.max(dv2)))


def q_tt(ensemble):
    """Largest accumulated integral of |E| along any trajectory."""
    return float(ensemble.field_integral.max())


# ---------------------------------------------------------------------------
# initial sampling
# ---------------------------------------------------------------------------


def _power_law_cdf_primitive(u, r):
    # antiderivative of s^2 (1+s)^-r with u = 1+s; denominators are nonzero
    # for every admissible r > 3
    return u ** (3.0 - r) / (3.0 - r) - 2.0 * u ** (2.0 - r) / (2.0 - r) + u ** (1.0 - r) / (
        1.0 - r
    )


def power_law_speed_cdf(speeds, r, v_max):
    """Exact normalized CDF of the speed law s^2 (1+s)^-r on [0, v_max]."""
    s = np.asarray(speeds, dtype=float)
    lo = _power_law_cdf_primitive(1.0, r)
    hi = _power_law_cdf_primitive(1.0 + v_max, r)
    return (_power_law_cdf_primitive(1.0 + s, r) - lo) / (hi - lo)


def _sample_power_law_speeds(rng, count, r, v_max):
    grid = np.linspace(0.0, v_max, 8193)
    cdf = power_law_speed_cdf(grid, r, v_max)
    return np.interp(rng.random(count), cdf, grid)


def sample_initial(spec, count, seed):
    """Draw an ensemble of ``count`` equal-weight particles.

    Draw order is fixed (positions, then velocities), so a given seed yields
    a bitwise-identical ensemble.
    """
    if spec.kind == "cold_lattice":
        raise ValueError("cold_lattice is built from the background grid; use node_lattice()")
    if count < 1:
        raise ValueError(f"particle count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    positions = spec.spatial.sample(rng, count)
    if spec.kind == "maxwellian":
        velocities = spec.sigma * rng.standard_normal((count, 3))
    else:
        speeds = _sample_power_law_speeds(rng, count, spec.r, spec.v_max)
        direction = rng.standard_normal((count, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        velocities = speeds[:, None] * direction
    weights = np.broadcast_to(1.0 / count, (count,))
    return ParticleEnsemble(positions=positions, velocities=velocities, weights=weights)


def node_lattice(g):
    """Motionless particle per node, weighted by the background cell mass.

    Depositing this ensemble reproduces the background density grid-exactly
    (every particle sits on its node), giving a discrete equilibrium. Nodes
    with zero background are skipped to keep weights positive.
    """
    grid = g.grid
    positions = grid.node_coords().reshape(-1, 3)
    weights = g.values.reshape(-1) * grid.cell_volume
    keep = weights > 0.0
    if not keep.any():
        raise ValueError("background is identically zero; no lattice particles")
    positions = positions[keep]
    weights = weights[keep]
    return ParticleEnsemble(
        positions=positions,
        velocities=np.zeros_like(positions),
        weights=weights,
    )
