"""Field solver against closed forms, an independent fixed-point oracle,
exact invariants, and its failure contracts.

Frozen numbers in this module were measured once with an independent script
and pinned; tolerances leave room for BLAS/FFT reordering, not for
regressions.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.special import erf

from vpme import fieldsolve as fs
from vpme import runner
from vpme.mesh import GridSpec, ScalarField, evaluate_g
from vpme.profiles import SpatialProfile
from vpme.pusher import TimeSpec

from conftest import load_run, make_scenario


def _background(grid, kind="gaussian", scale=1.0, center=(0.0, 0.0, 0.0)):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return evaluate_g(SpatialProfile(kind=kind, scale=scale, center=center), grid)


# ---------------------------------------------------------------------------
# ion part against closed forms
# ---------------------------------------------------------------------------


def test_dstn_matches_scipy_dst1_and_is_an_involution():
    # prime and composite m+1; 22, 30 and 46 are the interiors of the 24^3,
    # 32^3 and 48^3 grids
    rng = np.random.default_rng(0)
    cubes = [rng.standard_normal((m, m, m)) for m in (6, 22, 30, 46, 47, 126)]
    strided = rng.standard_normal((44, 22, 25))[::2, :, 1:-2]
    assert not strided.flags.c_contiguous
    for x in cubes + [strided]:
        tol = 1e-12 * float(np.abs(x).max())
        y = fs.dstn(x)
        assert np.abs(y - scipy.fft.dstn(x, type=1, norm="ortho")).max() <= tol
        assert np.abs(fs.dstn(y) - x).max() <= tol


def test_ball_potential_center_value_and_order():
    # unit-mass ball, radius R: center potential 3/(8 pi eps^2 R)
    radius, eps = 0.5, 1.0
    exact = 3.0 / (8.0 * math.pi * eps**2 * radius)
    errors = []
    for nodes in (32, 64, 128):
        grid = GridSpec(half_width=2.0, nodes=nodes)
        rho = _background(grid, kind="uniform_ball", scale=radius)
        ub = fs.solve_ubar(rho, eps)
        # even node count: average the 8 nodes around the origin
        c = nodes // 2
        center = ub.values[c - 1 : c + 1, c - 1 : c + 1, c - 1 : c + 1].mean()
        errors.append(abs(center - exact) / exact)
    assert errors[1] <= 0.02
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8
    # frozen run: errors 1.64e-2 / 3.89e-3 / 9.5e-4, orders 2.08 / 2.03
    assert errors[0] == pytest.approx(1.64e-2, rel=0.2)


def test_gaussian_potential_matches_erf_closed_form():
    # unit-mass gaussian: -eps^2 Lap U = rho has U = erf(r/(sigma sqrt 2))/(4 pi eps^2 r)
    grid = GridSpec(half_width=2.0, nodes=32)
    sigma, eps = 0.4, 0.7
    rho = _background(grid, scale=sigma)
    ub = fs.solve_ubar(rho, eps)
    r = np.maximum(np.linalg.norm(grid.node_coords(), axis=-1), 1e-12)
    exact = erf(r / (sigma * math.sqrt(2.0))) / (4.0 * math.pi * eps**2 * r)
    gap = np.abs(ub.values - exact).max() / exact.max()
    assert gap <= 0.01  # frozen run: 0.51% of peak


def test_ubar_scales_as_inverse_epsilon_squared():
    grid = GridSpec(half_width=2.0, nodes=32)
    rho = ScalarField(grid, _background(grid, scale=0.9).values * 0.999)
    u1 = fs.solve_ubar(rho, 0.4)
    u2 = fs.solve_ubar(rho, 0.2)
    c = grid.nodes // 2
    assert u2.values[c, c, c] / u1.values[c, c, c] == pytest.approx(4.0, abs=1e-12)


def test_ubar_meets_residual_contract():
    grid = GridSpec(half_width=2.0, nodes=32)
    rho = _background(grid, scale=0.5)
    eps = 0.6
    ub = fs.solve_ubar(rho, eps)
    defect = eps**2 * fs._lap_interior(ub.values, grid.spacing) + rho.values[1:-1, 1:-1, 1:-1]
    scale = math.sqrt(float(np.vdot(rho.values, rho.values)))
    assert math.sqrt(float(np.vdot(defect, defect))) <= fs.CONTRACT_RTOL * scale


def test_preconditioner_is_exact_shifted_inverse():
    grid = GridSpec(half_width=1.0, nodes=16)
    h = grid.spacing
    rng = np.random.default_rng(42)
    rhs = rng.standard_normal((14, 14, 14))
    eps2, shift = 0.36, 0.7
    x = fs._shifted_lap_solve(rhs, h, eps2, shift)
    back = -eps2 * fs._lap_zero_dirichlet(x, h) + shift * x
    assert np.abs(back - rhs).max() <= 1e-10 * np.abs(rhs).max()


# ---------------------------------------------------------------------------
# electron part: exact cases, oracle, screening limit
# ---------------------------------------------------------------------------


def test_equilibrium_density_yields_zero_field():
    # rho == g on the nodes: U = 0 solves the problem and the two monopole
    # closures cancel, so the assembled field is zero to rounding
    grid = GridSpec(half_width=4.0, nodes=48)
    g = _background(grid)
    sol = fs.solve_field(ScalarField(grid, g.values.copy()), g, 0.5)
    assert np.sqrt((sol.e.values**2).sum(axis=-1).max()) <= 1e-12  # frozen run: 1.1e-15
    assert abs(sol.gauss_imbalance) <= 1e-12
    assert sol.residual_inf <= fs.CONTRACT_RTOL


def test_zero_background_returns_zero_electron_potential():
    grid = GridSpec(half_width=2.0, nodes=16)
    rho = _background(grid, scale=0.5)
    g0 = ScalarField(grid, np.zeros((grid.nodes,) * 3))
    ub = fs.solve_ubar(rho, 0.8)
    hat = fs.solve_uhat(ub, g0, 0.8)
    assert hat.iterations == 0
    assert (hat.field.values == 0.0).all()


def test_newton_agrees_with_damped_picard_oracle():
    # independent route to the same fixed point: under-relaxed Picard sweeps
    # of the linear Dirichlet solve with the lagged monopole closure
    grid = GridSpec(half_width=2.0, nodes=32)
    rho = ScalarField(
        grid, _background(grid, scale=0.7, center=(0.1, -0.2, 0.0)).values * 0.97
    )
    g = _background(grid)
    eps = 0.8
    sol = fs.solve_field(rho, g, eps)

    h, eps2, vol = grid.spacing, eps**2, grid.cell_volume
    ub = sol.ubar.values
    uh = np.zeros_like(ub)
    theta = 0.8
    for _ in range(400):
        src = g.values * np.exp(ub + uh)
        mhat = float(src.sum()) * vol
        bc = fs._monopole_values(grid, -mhat, fs._centroid(src, grid), eps2)
        rhs = src[1:-1, 1:-1, 1:-1] / eps2
        rhs -= fs._lap_interior(fs._assemble(np.zeros_like(rhs), bc), h)
        coef = scipy.fft.dstn(rhs, type=1, norm="ortho") / -fs._neg_lap_eigs(rhs.shape[0], h)
        interior = scipy.fft.dstn(coef, type=1, norm="ortho")
        new = fs._assemble(interior, bc)
        step = float(np.abs(new - uh).max())
        uh = (1.0 - theta) * uh + theta * new
        if step < 1e-14:
            break
    assert np.abs(uh - sol.uhat.values).max() <= 1e-12  # frozen run: 5.5e-14


def test_screening_limit_approaches_quasi_neutral_log_ratio():
    # as eps -> 0 the interior potential tends to log(rho/g); the sup gap on
    # the bulk (nodes with |x| <= 1) must shrink monotonically
    grid = GridSpec(half_width=2.0, nodes=32)
    rho = ScalarField(grid, _background(grid, scale=0.9).values * 0.999)
    g = _background(grid)
    target = np.log(rho.values / g.values)
    bulk = slice(8, 25)
    caps = {0.2: 0.25, 0.1: 0.16, 0.05: 0.08, 0.03: 0.03}
    gaps = []
    for eps, cap in caps.items():
        sol = fs.solve_field(rho, g, eps)
        gap = float(np.abs((sol.u.values - target)[bulk, bulk, bulk]).max())
        # frozen run: gaps 0.178 / 0.113 / 0.049 / 0.020, newton <= 39
        assert gap <= cap
        assert sol.newton_iterations <= 60
        assert sol.uhat.values.max() <= fs.UHAT_POSITIVE_TOL
        gaps.append(gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_boundary_row_is_the_monopole_of_the_returned_electron_mass():
    # the closure solved for: Uhat = -mhat/(4 pi eps^2 r) on the faces, with
    # mhat and the centroid taken from the returned field itself
    grid = GridSpec(half_width=2.0, nodes=32)
    rho = ScalarField(grid, _background(grid, scale=0.9).values * 0.999)
    g = _background(grid)
    eps = 0.05
    sol = fs.solve_field(rho, g, eps)
    src = g.values * np.exp(sol.u.values)
    mhat = float(src.sum()) * grid.cell_volume
    expected = fs._monopole_values(grid, -mhat, fs._centroid(src, grid), eps**2)
    faces = np.ones(src.shape, dtype=bool)
    faces[1:-1, 1:-1, 1:-1] = False
    gap = np.abs(sol.uhat.values[faces] - expected[faces]).max()
    # frozen run: 2.1e-15 relative
    assert gap <= fs.MASS_RTOL * np.abs(expected[faces]).max()


def test_quasi_neutral_run_at_eps_005_completes(tmp_path):
    # 32^3 nodes, 2e4 ions at eps = 0.05: a secant on the boundary mass
    # outside the Newton loop stalled at a 1.6e-10 mass imbalance after
    # t = 0.075 on this seed
    cfg = make_scenario(
        grid=GridSpec(half_width=4.0, nodes=32),
        count=20_000,
        epsilon=0.05,
        time=TimeSpec(dt=0.005, t_end=16 * 0.005, checkpoint_every=1),
    )
    runner.run(cfg, tmp_path)
    run = load_run(tmp_path)
    assert run.meta["status"] == "ok"
    assert len(run.series["t"]) == 17
    scale = np.maximum(1.0, run.fields["geU_Linf"])
    assert (run.series["residual_inf"] <= fs.CONTRACT_RTOL * scale).all()
    assert (np.abs(run.series["gauss_imbalance"]) <= fs.GAUSS_GATE).all()
    assert (run.fields["uhat_max"] <= fs.UHAT_POSITIVE_TOL).all()


def test_warm_restart_from_solution_costs_no_newton_steps():
    grid = GridSpec(half_width=2.0, nodes=32)
    rho = ScalarField(grid, _background(grid, scale=0.9).values * 0.999)
    g = _background(grid)
    cold = fs.solve_field(rho, g, 0.05)
    warm = fs.solve_field(rho, g, 0.05, uhat_initial=cold.uhat)
    assert warm.newton_iterations == 0
    # interior untouched; the boundary row is re-derived from the converged
    # mass and centroid, which agree only to rounding
    assert np.array_equal(
        warm.uhat.values[1:-1, 1:-1, 1:-1], cold.uhat.values[1:-1, 1:-1, 1:-1]
    )
    assert np.abs(warm.uhat.values - cold.uhat.values).max() <= 1e-12


# ---------------------------------------------------------------------------
# audits and failure contracts
# ---------------------------------------------------------------------------


def test_gauss_imbalance_equals_interior_residual_sum():
    # identity check on an arbitrary (non-solved) potential
    grid = GridSpec(half_width=2.0, nodes=16)
    rng = np.random.default_rng(3)
    u = ScalarField(grid, 0.1 * rng.standard_normal((16, 16, 16)))
    rho = _background(grid, scale=0.5)
    g = _background(grid, scale=0.8)
    eps = 0.7
    residual = eps**2 * fs._lap_interior(u.values, grid.spacing) - (
        g.values * np.exp(u.values) - rho.values
    )[1:-1, 1:-1, 1:-1]
    expected = float(residual.sum()) * grid.cell_volume
    got = fs.gauss_imbalance(u, rho, g, eps)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_solve_field_validates_inputs():
    grid = GridSpec(half_width=2.0, nodes=16)
    other = GridSpec(half_width=2.0, nodes=24)
    rho = _background(grid, scale=0.5)
    g = _background(grid)
    with pytest.raises(ValueError, match="different grids"):
        fs.solve_field(rho, _background(other), 0.5)
    bad = rho.values.copy()
    bad[3, 3, 3] = -1e-3
    with pytest.raises(ValueError, match="negative"):
        fs.solve_field(ScalarField(grid, bad), g, 0.5)
    heavy = ScalarField(grid, rho.values * 1.5)
    with pytest.raises(ValueError, match="mass"):
        fs.solve_field(heavy, g, 0.5)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            fs.solve_field(rho, g, eps)


def _small_problem():
    """16^3 ion density and background on [-2, 2]^3 at eps = 0.5."""
    grid = GridSpec(half_width=2.0, nodes=16)
    return _background(grid, scale=0.5), _background(grid)


def test_absurd_initial_guess_raises_with_warm_start_advice():
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    # exp overflows above ~709.8, so the first source evaluation trips
    with pytest.raises(fs.FieldSolveError, match="overflowed"):
        fs.solve_uhat(ub, g, 0.5, initial=np.full((16, 16, 16), 800.0))


def test_non_finite_cg_residual_raises_with_warm_start_advice():
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    # exp(705) is finite, but the Newton operator built on it is not: the
    # inner CG residual turns NaN on its first iteration
    with pytest.raises(fs.FieldSolveError, match="retry from a warm start"):
        fs.solve_uhat(ub, g, 0.5, initial=np.full((16, 16, 16), 705.0))


def test_newton_step_cap_raises_did_not_converge(monkeypatch):
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    monkeypatch.setattr(fs, "MAX_NEWTON", 1)
    with pytest.raises(fs.FieldSolveError, match="did not converge in 1 iterations"):
        fs.solve_uhat(ub, g, 0.5)


def test_ascent_direction_raises_line_search_stagnated(monkeypatch):
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    pcg = fs._pcg

    def negated(*args, **kwargs):
        x, it = pcg(*args, **kwargs)
        return -x, it

    monkeypatch.setattr(fs, "_pcg", negated)
    with pytest.raises(fs.FieldSolveError, match="line search stagnated"):
        fs.solve_uhat(ub, g, 0.5)


def test_unreachable_target_returns_through_the_contract_fallback(monkeypatch):
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    reference = fs.solve_uhat(ub, g, 0.5)
    # with a zero target Newton runs to the round-off floor, where the line
    # search stagnates and the contract residual lets the iterate through
    monkeypatch.setattr(fs, "NEWTON_TARGET_RTOL", 0.0)
    floor = fs.solve_uhat(ub, g, 0.5)
    assert floor.residual <= fs.CONTRACT_RTOL
    assert floor.iterations >= reference.iterations
    assert np.abs(floor.field.values - reference.field.values).max() <= 1e-10


def test_zero_contract_makes_the_ion_solve_stall(monkeypatch):
    rho, _ = _small_problem()
    monkeypatch.setattr(fs, "CONTRACT_RTOL", 0.0)
    with pytest.raises(fs.FieldSolveError, match="stalled") as info:
        fs.solve_ubar(rho, 0.5)
    assert info.value.residual > 0.0


def test_cached_grid_arrays_are_read_only():
    grid = GridSpec(half_width=2.0, nodes=16)
    for arr in (fs._neg_lap_eigs(14, grid.spacing), fs._sine_matrix(14), fs._node_coords(grid)):
        assert not arr.flags.writeable


def test_zero_solution_placeholder_shape():
    grid = GridSpec(half_width=2.0, nodes=8)
    sol = fs.zero_solution(grid, 0.5)
    assert np.sqrt((sol.e.values**2).sum(axis=-1).max()) == 0.0
    assert sol.newton_iterations == 0
