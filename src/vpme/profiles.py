"""Spatial density profiles shared by the ion sampler and the background g."""

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("gaussian", "uniform_ball")


@dataclass(frozen=True)
class SpatialProfile:
    """Unit-mass density on R^3: isotropic gaussian or uniform ball.

    ``scale`` is the standard deviation per axis for ``gaussian`` and the
    radius for ``uniform_ball``.
    """

    kind: str
    scale: float
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}, expected one of {KINDS}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"profile scale must be positive and finite, got {self.scale}")
        if len(self.center) != 3:
            raise ValueError("profile center must have 3 components")
        center = tuple(float(c) for c in self.center)
        if not all(math.isfinite(c) for c in center):
            raise ValueError(f"profile center must be finite, got {center}")
        object.__setattr__(self, "center", center)

    def density(self, points):
        """Pointwise density at an (n, 3) array of positions."""
        pts = np.asarray(points, dtype=float)
        d2 = ((pts - np.asarray(self.center)) ** 2).sum(axis=-1)
        if self.kind == "gaussian":
            s2 = self.scale**2
            return np.exp(-0.5 * d2 / s2) / (2.0 * math.pi * s2) ** 1.5
        inside = d2 <= self.scale**2
        return inside * (3.0 / (4.0 * math.pi * self.scale**3))

    def sample(self, rng, count):
        """Draw ``count`` positions, shape (count, 3)."""
        if self.kind == "gaussian":
            return np.asarray(self.center) + self.scale * rng.standard_normal((count, 3))
        direction = rng.standard_normal((count, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = self.scale * rng.random(count) ** (1.0 / 3.0)
        return np.asarray(self.center) + radius[:, None] * direction

    def mass_outside_box(self, half_width):
        """Analytic mass outside [-half_width, half_width]^3."""
        if self.kind == "gaussian":
            inside = 1.0
            for c in self.center:
                a = (half_width - c) / (self.scale * math.sqrt(2.0))
                b = (-half_width - c) / (self.scale * math.sqrt(2.0))
                inside *= 0.5 * (math.erf(a) - math.erf(b))
            return 1.0 - inside
        if all(abs(c) + self.scale <= half_width for c in self.center):
            return 0.0
        # midpoint quadrature over n^3 cells of the ball's bounding box; only
        # reached for balls poking out of the domain, which no shipped
        # scenario uses
        n = 64
        width = 2.0 * self.scale / n
        mid = (np.arange(n) + 0.5) * width - self.scale
        xs, ys, zs = np.meshgrid(*[c + mid for c in self.center], indexing="ij")
        pts = np.stack([xs, ys, zs], axis=-1).reshape(-1, 3)
        dens = self.density(pts)
        out = (np.abs(pts) > half_width).any(axis=1)
        return float((dens * out).sum() * width**3)
