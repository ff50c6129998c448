"""Ensemble state, velocity diagnostics, and initial-distribution sampling.

Sampler statistics are checked against independent oracles: quadrature
moments of the speed law and a trapezoid-integrated CDF (no shared code with
the closed-form primitive used by the sampler).
"""

import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from vpme import kernels, mesh, particles
from vpme.mesh import GridSpec
from vpme.particles import InitialDistributionSpec, ParticleEnsemble
from vpme.profiles import SpatialProfile

PROF = SpatialProfile(kind="gaussian", scale=1.0)
R_TAIL, V_MAX = 4.0, 20.0


def _speed_quad_moment(k):
    norm = quad(lambda s: s**2 * (1 + s) ** -R_TAIL, 0, V_MAX, limit=200)[0]
    return quad(lambda s: s ** (2 + k) * (1 + s) ** -R_TAIL, 0, V_MAX, limit=200)[0] / norm


def _trapezoid_cdf(sgrid):
    pdf = sgrid**2 * (1.0 + sgrid) ** -R_TAIL
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(sgrid))])
    return cdf / cdf[-1]


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown init kind"):
        InitialDistributionSpec(kind="thermal", spatial=PROF)
    with pytest.raises(ValueError, match="must exceed 2"):
        InitialDistributionSpec(kind="maxwellian", spatial=PROF, m1=2.0)
    with pytest.raises(ValueError, match="sigma"):
        InitialDistributionSpec(kind="maxwellian", spatial=PROF, sigma=0.0)
    with pytest.raises(ValueError, match="third moment"):
        InitialDistributionSpec(kind="power_law", spatial=PROF, r=3.0)
    with pytest.raises(ValueError, match="cutoff"):
        InitialDistributionSpec(kind="power_law", spatial=PROF, v_max=-1.0)
    with pytest.raises(ValueError, match="spatial profile"):
        InitialDistributionSpec(kind="maxwellian")
    # cold lattice takes no spatial profile
    InitialDistributionSpec(kind="cold_lattice")


def test_ensemble_validation():
    pos = np.zeros((4, 3))
    vel = np.zeros((4, 3))
    with pytest.raises(ValueError, match="weights"):
        ParticleEnsemble(positions=pos, velocities=vel, weights=np.zeros(4))
    with pytest.raises(ValueError, match="\\(n, 3\\)"):
        ParticleEnsemble(positions=pos, velocities=np.zeros((3, 3)), weights=np.ones(4))
    ens = ParticleEnsemble(positions=pos, velocities=vel, weights=np.ones(4))
    assert ens.count == 4
    assert ens.total_weight == pytest.approx(4.0)
    assert (ens.field_integral == 0.0).all()


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ParticleEnsemble(
                positions=np.zeros((0, 3)), velocities=np.zeros((0, 3)), weights=np.ones(0)
            ),
            "at least one particle",
        ),
        (
            lambda: ParticleEnsemble(
                positions=np.zeros((4, 3)), velocities=np.zeros((4, 3)), weights=np.ones(3)
            ),
            "weights must be \\(n,\\)",
        ),
        (
            lambda: particles.sample_initial(InitialDistributionSpec(kind="cold_lattice"), 10, 0),
            "use node_lattice",
        ),
        (
            lambda: particles.sample_initial(
                InitialDistributionSpec(kind="maxwellian", spatial=PROF), 0, 0
            ),
            "at least 1",
        ),
        (
            lambda: particles.node_lattice(mesh.ScalarField(GridSpec(2.0, 8), np.zeros((8, 8, 8)))),
            "identically zero",
        ),
        # an infinite weight would reach the deposits, where an escaped ion's
        # zero corner weight times it is NaN
        (
            lambda: ParticleEnsemble(
                positions=np.zeros((3, 3)), velocities=np.zeros((3, 3)), weights=[np.inf, 1.0, 1.0]
            ),
            "positive and finite",
        ),
    ],
)
def test_ensemble_and_sampler_reject_empty_or_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --------------------------------------------------------------------------
# velocity diagnostics
# --------------------------------------------------------------------------


def test_moment_and_deviation_basics():
    vel = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    ens = ParticleEnsemble(
        positions=np.zeros((2, 3)), velocities=vel, weights=np.array([0.25, 0.75])
    )
    kinetic, moments, v2max = particles.speed_sums(ens.velocities, ens.weights, (2.0, 3.0))
    assert kinetic == pytest.approx(0.25 + 3.0)
    assert v2max == 4.0
    assert moments[2.0] == pytest.approx(0.25 + 3.0)
    assert moments[3.0] == pytest.approx(0.25 + 6.0)
    assert particles.q_star(ens) == 0.0
    assert particles.q_tt(ens) == 0.0
    ens.velocities = ens.velocities + np.array([0.0, -3.0, 4.0])  # shift all by norm 5
    assert particles.q_star(ens) == pytest.approx(5.0, abs=1e-14)


def test_constant_force_deviation_matches_time():
    # unit force for duration t: deviation grows linearly, exactly
    ens = ParticleEnsemble(
        positions=np.zeros((3, 3)),
        velocities=np.zeros((3, 3)),
        weights=np.ones(3),
    )
    dt, n = 0.05, 40
    for _ in range(n):
        ens.velocities[:, 0] += dt * 1.0
        ens.field_integral += dt * 1.0
    assert particles.q_star(ens) == pytest.approx(n * dt, rel=1e-14)
    assert particles.q_tt(ens) == pytest.approx(n * dt, rel=1e-14)


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


def test_sampling_is_seed_deterministic():
    spec = InitialDistributionSpec(kind="maxwellian", spatial=PROF)
    a = particles.sample_initial(spec, 500, seed=5)
    b = particles.sample_initial(spec, 500, seed=5)
    c = particles.sample_initial(spec, 500, seed=6)
    assert (a.positions == b.positions).all()
    assert (a.velocities == b.velocities).all()
    assert not (a.velocities == c.velocities).all()
    assert a.weights[0] == pytest.approx(1.0 / 500)


def test_maxwellian_moments():
    sigma, n = 1.3, 200_000
    spec = InitialDistributionSpec(kind="maxwellian", spatial=PROF, sigma=sigma)
    ens = particles.sample_initial(spec, n, seed=99)
    m2 = particles.speed_sums(ens.velocities, ens.weights, (2.0,))[1][2.0]
    se = sigma**2 * np.sqrt(6.0 / n)  # Var|v|^2 = 6 sigma^4
    assert abs(m2 - 3.0 * sigma**2) <= 4.0 * se
    mean_v = ens.velocities.mean(axis=0)
    assert np.abs(mean_v).max() <= 4.0 * sigma / np.sqrt(n)


def test_power_law_cdf_against_trapezoid_quadrature():
    sgrid = np.linspace(0.0, V_MAX, 40001)
    closed = particles.power_law_speed_cdf(sgrid, R_TAIL, V_MAX)
    assert closed[0] == 0.0
    assert closed[-1] == pytest.approx(1.0, abs=1e-14)
    assert (np.diff(closed) >= 0.0).all()
    assert np.abs(closed - _trapezoid_cdf(sgrid)).max() < 1e-7


def test_power_law_sampler_ks_and_moments():
    n = 200_000
    spec = InitialDistributionSpec(kind="power_law", spatial=PROF, r=R_TAIL, v_max=V_MAX)
    ens = particles.sample_initial(spec, n, seed=99)
    speeds = np.sqrt((ens.velocities**2).sum(axis=1))
    assert speeds.max() <= V_MAX
    sgrid = np.linspace(0.0, V_MAX, 40001)
    cdf = _trapezoid_cdf(sgrid)
    ks = stats.ks_1samp(speeds, lambda s: np.interp(s, sgrid, cdf))
    assert ks.statistic <= 0.01
    moments = particles.speed_sums(ens.velocities, ens.weights, (2.0, 2.5, 3.0))[1]
    for k in (2.0, 2.5, 3.0):
        target = _speed_quad_moment(k)
        sample_se = float(speeds.__pow__(k).std() / np.sqrt(n))
        got = moments[k]
        assert abs(got - target) <= 5.0 * sample_se, (k, got, target, sample_se)


def test_power_law_directions_are_isotropic():
    spec = InitialDistributionSpec(kind="power_law", spatial=PROF, r=R_TAIL, v_max=V_MAX)
    ens = particles.sample_initial(spec, 100_000, seed=3)
    speeds = np.sqrt((ens.velocities**2).sum(axis=1))
    units = ens.velocities / speeds[:, None]
    # mean of each unit-vector component: SE = 1/sqrt(3n)
    assert np.abs(units.mean(axis=0)).max() <= 4.0 / np.sqrt(3.0 * 100_000)


def test_node_lattice_reproduces_background():
    grid = GridSpec(half_width=3.0, nodes=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = mesh.evaluate_g(PROF, grid)
    ens = particles.node_lattice(g)
    assert (ens.velocities == 0.0).all()
    assert ens.total_weight == pytest.approx(1.0, abs=1e-12)
    cic = kernels.cic_setup(ens.positions, grid.origin, grid.spacing, grid.nodes)
    rho = mesh.deposit_density(ens, grid, cic)
    assert ens.escaped_mass == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(rho.values, g.values, rtol=0.0, atol=1e-12 * g.values.max())


def test_node_lattice_skips_empty_nodes():
    grid = GridSpec(half_width=2.0, nodes=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = mesh.evaluate_g(SpatialProfile(kind="uniform_ball", scale=0.5), grid)
    ens = particles.node_lattice(g)
    assert ens.count < grid.nodes**3
    assert (ens.weights > 0.0).all()
