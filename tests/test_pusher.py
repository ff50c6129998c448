"""Leapfrog advance: exact cases, measured convergence order, reversibility.

The gather is trilinear, so linear-in-x grid fields are interpolated exactly
and trajectory error isolates the time discretization.
"""

import math
import tracemalloc

import numpy as np
import pytest

from vpme import kernels, mesh, pusher
from vpme.mesh import GridSpec, ScalarField, VectorField
from vpme.particles import ParticleEnsemble, q_star, q_tt
from vpme.pusher import TimeSpec

GRID = GridSpec(half_width=2.0, nodes=16)


def _linear_field(slope):
    # E(x) = slope * x, exact under trilinear interpolation
    return VectorField(GRID, slope * GRID.node_coords())


def _constant_field(vec):
    values = np.empty((GRID.nodes,) * 3 + (3,))
    values[...] = vec
    return VectorField(GRID, values)


def _setup(ens):
    # the CIC setup that every step of a run refills in place
    return kernels.cic_setup(ens.positions, GRID.origin, GRID.spacing, GRID.nodes)


def _single(x, v):
    return ParticleEnsemble(
        positions=np.array([x], dtype=float),
        velocities=np.array([v], dtype=float),
        weights=np.array([1.0]),
    )


def test_time_spec_validation():
    for bad in (dict(dt=0.0, t_end=1.0), dict(dt=-0.1, t_end=1.0), dict(dt=math.nan, t_end=1.0)):
        with pytest.raises(ValueError):
            TimeSpec(**bad)
    with pytest.raises(ValueError):
        TimeSpec(dt=0.1, t_end=0.05)
    with pytest.raises(ValueError):
        TimeSpec(dt=0.1, t_end=1.0, checkpoint_every=0)
    assert TimeSpec(dt=0.005, t_end=1.0).steps == 200
    assert TimeSpec(dt=0.3, t_end=1.0).steps == 3  # nearest whole step


def test_free_streaming_is_exact():
    ens = _single([0.1, -0.2, 0.3], [0.4, 0.25, -0.3])
    zero = _constant_field([0.0, 0.0, 0.0])
    cic = _setup(ens)
    for _ in range(100):
        pusher.step(ens, zero, 0.01, cic)
    assert np.allclose(ens.positions[0], [0.5, 0.05, 0.0], atol=1e-14)
    assert np.array_equal(ens.velocities, ens.initial_velocities)
    assert q_star(ens) == 0.0
    assert q_tt(ens) == 0.0


def test_constant_field_is_exact_and_saturates_deviation_bound():
    a = np.array([0.3, 0.0, 0.0])
    ens = _single([-0.5, 0.0, 0.0], [0.2, 0.1, 0.0])
    field = _constant_field(a)
    dt, n = 0.01, 150
    cic = _setup(ens)
    for _ in range(n):
        pusher.step(ens, field, dt, cic)
    t = n * dt
    assert np.allclose(ens.velocities[0], [0.2 + 0.3 * t, 0.1, 0.0], atol=1e-13)
    expect_x = np.array([-0.5, 0.0, 0.0]) + t * np.array([0.2, 0.1, 0.0]) + 0.5 * t * t * a
    assert np.allclose(ens.positions[0], expect_x, atol=1e-13)
    # uniform |E|: the integral bound is tight and matches the deviation
    assert q_tt(ens) == pytest.approx(0.3 * t, abs=1e-12)
    assert q_star(ens) == pytest.approx(0.3 * t, abs=1e-12)
    assert q_star(ens) <= q_tt(ens) + 1e-8


def test_harmonic_trajectory_second_order():
    # E = -x gives x(t) = x0 cos t + v0 sin t; frozen endpoint errors
    # 2.201e-5 / 5.502e-6 / 1.375e-6 at dt = 0.02 / 0.01 / 0.005
    field = _linear_field(-1.0)
    x0 = np.array([0.5, 0.0, -0.3])
    v0 = np.array([0.0, 0.4, 0.0])
    errors = []
    for dt in (0.02, 0.01, 0.005):
        ens = _single(x0, v0)
        steps = round(1.0 / dt)
        cic = _setup(ens)
        for _ in range(steps):
            pusher.step(ens, field, dt, cic)
        exact = x0 * math.cos(1.0) + v0 * math.sin(1.0)
        errors.append(float(np.linalg.norm(ens.positions[0] - exact)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.2)
    assert errors[0] == pytest.approx(2.201e-5, rel=1e-3)


def test_velocity_reversal_retraces_the_path():
    field = _linear_field(-1.0)
    ens = _single([0.5, 0.0, -0.3], [0.0, 0.4, 0.0])
    cic = _setup(ens)
    for _ in range(200):
        pusher.step(ens, field, 0.005, cic)
    ens.velocities *= -1.0
    for _ in range(200):
        pusher.step(ens, field, 0.005, cic)
    ens.velocities *= -1.0
    assert np.allclose(ens.positions[0], [0.5, 0.0, -0.3], atol=1e-10)
    assert np.allclose(ens.velocities[0], [0.0, 0.4, 0.0], atol=1e-10)


def test_midstep_outputs_feed_current_deposit():
    rng = np.random.default_rng(3)
    ens = ParticleEnsemble(
        positions=rng.uniform(-1.5, 1.5, (40, 3)),
        velocities=rng.standard_normal((40, 3)),
        weights=rng.uniform(0.5, 1.5, 40),
    )
    field = _linear_field(-0.7)
    dt = 0.1
    x, v = ens.positions.copy(), ens.velocities.copy()
    cic = _setup(ens)
    e1 = kernels.gather_vec(field.values, cic, np.empty_like(x))
    j_mid = pusher.step(ens, field, dt, cic, midpoint=True)
    # the current at the half-step positions, with the velocities after the opening kick
    v += 0.5 * dt * e1
    half = kernels.cic_setup(x + 0.5 * dt * v, GRID.origin, GRID.spacing, GRID.nodes)
    expect = mesh.current_from_arrays(half, v, ens.weights, GRID)
    assert np.array_equal(j_mid.values, expect.values)
    # the setup is refilled with that of the drifted positions
    for a, b in zip(cic, _setup(ens)):
        assert np.array_equal(a, b)
    # without midpoint, a step deposits no current
    assert pusher.step(ens, field, dt, cic) is None


def test_checkpoint_step_allocates_no_per_ion_midpoint_arrays():
    # a step that filled a second setup and a copy of the half-step
    # velocities for the current deposit peaked at 13.0 MB here
    rng = np.random.default_rng(8)
    n = 200_000
    ens = ParticleEnsemble(
        positions=rng.uniform(-2.2, 2.2, (n, 3)),
        velocities=rng.standard_normal((n, 3)),
        weights=np.full(n, 1.0 / n),
    )
    e = VectorField(GRID, kernels.component_major(rng.standard_normal((GRID.nodes,) * 3 + (3,))))
    cic = _setup(ens)
    tracemalloc.start()
    try:
        pusher.step(ens, e, 0.01, cic, midpoint=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the deposit's in-box weights, the current and its raw sum, and the
    # push's and the deposit's per-block work arrays
    assert peak <= 8 * n + 2 * e.values.nbytes + 128 * kernels.BLOCK


def test_stability_advisories():
    calm = _single([0.0, 0.0, 0.0], [0.1, 0.0, 0.0])
    zero = _constant_field([0.0, 0.0, 0.0])
    assert pusher.stability_check((calm.velocities**2).sum(axis=1).max(), zero, 0.01) == []

    fast = _single([0.0, 0.0, 0.0], [50.0, 0.0, 0.0])
    notes = pusher.stability_check((fast.velocities**2).sum(axis=1).max(), zero, 0.01)
    assert len(notes) == 1 and "cross cells" in notes[0]

    stiff = _linear_field(-50.0)
    notes = pusher.stability_check((calm.velocities**2).sum(axis=1).max(), stiff, 0.1)
    assert len(notes) == 1 and "varies too fast" in notes[0]


def test_gradient_max_by_axis_equals_the_full_gradient_max():
    # oracle: the three (N, N, N, 3) gradients the advisory once built; max
    # and abs are exact, so the per-axis reduction must agree bitwise
    rng = np.random.default_rng(5)
    for nodes in (8, 17):
        grid = GridSpec(half_width=1.5, nodes=nodes)
        for scale in (1.0, 1e-3, 1e4):
            e = VectorField(grid, scale * rng.standard_normal((nodes,) * 3 + (3,)))
            oracle = max(
                float(np.abs(mesh.gradient(ScalarField(grid, e.values[..., c]))).max())
                for c in range(3)
            )
            assert pusher._max_abs_gradient(e) == oracle
