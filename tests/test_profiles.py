"""Spatial profiles: validation, and the uniform ball's sampler, density and box leakage."""

import math

import numpy as np
import pytest

from vpme.profiles import SpatialProfile


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(kind="cube", scale=1.0), "unknown profile kind"),
        (dict(kind="gaussian", scale=math.inf), "scale must be positive and finite"),
        (dict(kind="uniform_ball", scale=1.0, center=(0.0, 0.0)), "3 components"),
        (dict(kind="gaussian", scale=1.0, center=(math.nan, 0.0, 0.0)), "center must be finite"),
    ],
)
def test_profile_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SpatialProfile(**kwargs)


def test_uniform_ball_samples_fill_the_ball_by_volume():
    center = np.array([0.25, -0.5, 0.0])
    ball = SpatialProfile(kind="uniform_ball", scale=0.75, center=tuple(center))
    pts = ball.sample(np.random.default_rng(3), 20_000)
    radius = np.linalg.norm(pts - center, axis=1) / ball.scale
    assert radius.max() <= 1.0 + 1e-12
    peak = 3.0 / (4.0 * math.pi * ball.scale**3)
    assert (ball.density(pts[radius < 1.0 - 1e-9]) == peak).all()
    beyond = center + (pts - center) * (1.01 / radius[:, None])
    assert (ball.density(beyond) == 0.0).all()
    # a uniform ball holds half its mass within 2^(-1/3) of the radius
    assert abs(np.median(radius) - 2.0 ** (-1.0 / 3.0)) <= 0.01


def test_uniform_ball_mass_outside_box():
    half_width, radius = 2.0, 0.5
    inside = SpatialProfile(kind="uniform_ball", scale=radius, center=(1.0, -1.0, 0.5))
    assert inside.mass_outside_box(half_width) == 0.0
    # a face cuts off a cap of height R/2, which holds 5/32 of the ball's mass
    cap = (half_width - radius / 2, 0.0, 0.0)
    poking = SpatialProfile(kind="uniform_ball", scale=radius, center=cap)
    # midpoint rule on 64^3 cells: 0.15629 (the endpoint sum gave 0.1511)
    assert abs(poking.mass_outside_box(half_width) - 5.0 / 32.0) <= 1e-3
