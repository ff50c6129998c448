"""Field solver against closed forms, an independent fixed-point oracle,
exact invariants, and its failure contracts.

Frozen numbers in this module were measured once with an independent script
and pinned; tolerances leave room for BLAS/FFT reordering, not for
regressions.
"""

import inspect
import math
import re
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


def _monopole(grid, charge, center, eps2):
    """charge/(4 pi eps2 r) on the boundary faces, zero inside."""
    return fs._on_faces(grid, charge * fs._face_kernel(grid, center, eps2)[0])


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


def test_dstn_follows_a_float32_input():
    # the electron solve's preconditioner transforms float32 vectors with a
    # float32 sine matrix; measured gaps 1.7e-7 to 2.3e-7 of max|y|
    rng = np.random.default_rng(1)
    for m in (14, 22, 30):
        x = rng.standard_normal((m, m, m))
        y = fs.dstn(x.astype(np.float32))
        assert y.dtype == np.float32
        exact = fs.dstn(x)
        assert exact.dtype == np.float64
        assert np.abs(y - exact).max() <= 1e-6 * float(np.abs(exact).max())


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
    x = fs._shifted_lap_inverse(14, h, eps2, shift)(rhs)
    # the CG keeps A p by recurrence on this identity: M M^-1 r = r
    back = -eps2 * fs._lap_interior(np.pad(x, 1), h) + shift * x
    assert np.abs(back - rhs).max() <= 1e-10 * np.abs(rhs).max()


def _stencil_pcg(eps2, w, h, minv, b, rtol):
    """Textbook PCG that applies A = -eps2 Lap_h + diag(w) by the stencil."""
    x = np.zeros_like(b)
    norm_b = math.sqrt(float(np.vdot(b, b)))
    r = b.copy()
    z = minv(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    for it in range(1, fs.MAX_CG + 1):
        ap = -eps2 * fs._lap_interior(np.pad(p, 1), h) + w * p
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        if math.sqrt(float(np.vdot(r, r))) <= rtol * norm_b:
            return x, it
        z = minv(r)
        rz_next = float(np.vdot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("stencil PCG did not converge")


def test_recurrence_pcg_matches_stencil_pcg():
    # w = g e^U of a solved eps = 0.05 problem spans 2.4 decades, so the
    # constant shift of the preconditioner is far from w over most nodes
    grid = GridSpec(half_width=2.0, nodes=32)
    h, m, eps = grid.spacing, grid.nodes - 2, 0.05
    g = _background(grid)
    sol = fs.solve_field(ScalarField(grid, _background(grid, scale=0.9).values * 0.999), g, eps)
    w = (g.values * np.exp(sol.u.values))[1:-1, 1:-1, 1:-1]
    assert w.max() > 100.0 * w.min()
    shift = float(w.mean())
    minv = fs._shifted_lap_inverse(m, h, eps**2, shift)
    b = np.random.default_rng(11).standard_normal((m, m, m))
    for rtol in (1e-4, 1e-10):
        x, it = fs._pcg(w - shift, minv, b, rtol)
        ref, ref_it = _stencil_pcg(eps**2, w, h, minv, b, rtol)
        assert it == ref_it
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_recurrence_pcg_meets_its_residual_on_a_stiff_diagonal():
    # w peaks at 7.5 against a mean near 0.03: CG takes about 40 (rtol 1e-4)
    # and 90 (rtol 1e-10) iterations, along which the recurrence and the
    # stencil iterates part by rounding, so the oracle here is the true
    # residual b - A x, not the stencil PCG's x
    grid = GridSpec(half_width=4.0, nodes=32)
    h, m, eps2 = grid.spacing, grid.nodes - 2, 0.1**2
    rng = np.random.default_rng(11)
    r2 = (grid.node_coords()[1:-1, 1:-1, 1:-1] ** 2).sum(axis=-1)
    w = 5.0 * np.exp(-r2) * rng.uniform(0.5, 1.5, (m, m, m)) + 1e-4
    b = rng.standard_normal((m, m, m))
    shift = float(w.mean())
    minv = fs._shifted_lap_inverse(m, h, eps2, shift)
    for rtol in (1e-4, 1e-10):
        x, it = fs._pcg(w - shift, minv, b, rtol)
        true_res = b + eps2 * fs._lap_interior(np.pad(x, 1), h) - w * x
        assert it > 30
        assert np.linalg.norm(true_res) <= 1.1 * rtol * np.linalg.norm(b)


def test_float32_inner_solve_reaches_the_same_residual_at_any_scale():
    # the electron CG runs in float32 on the unit-norm right-hand side. Unscaled,
    # a norm of 1e25 overflows the float32 inner products (a non-finite CG
    # residual) and a norm of 1e-30 underflows to a zero norm (x = 0)
    grid = GridSpec(half_width=2.0, nodes=16)
    h, m, eps2 = grid.spacing, grid.nodes - 2, 0.05**2
    rng = np.random.default_rng(7)
    w = np.exp(rng.uniform(-3.0, 3.0, (m, m, m)))
    shift = float(w.mean())
    minv = fs._shifted_lap_inverse(m, h, eps2, shift, np.float32)
    d = (w - shift).astype(np.float32)
    b = rng.standard_normal((m, m, m))
    b /= np.linalg.norm(b)

    def solved(norm):
        x, it = fs._pcg(d, minv, norm * b, fs.NEWTON_CG_RTOL)
        assert x.dtype == np.float64
        # the true residual in float64, with the stencil operator
        res = norm * b + eps2 * fs._lap_interior(np.pad(x, 1), h) - w * x
        return np.linalg.norm(res) / norm, it

    unit, unit_it = solved(1.0)
    assert unit <= 1.1 * fs.NEWTON_CG_RTOL
    for norm in (1e-30, 1e25):
        rel, it = solved(norm)
        assert it == unit_it
        assert rel == pytest.approx(unit, rel=1e-4)


def test_electron_cg_runs_in_float32_and_the_ion_solve_in_float64(monkeypatch):
    pcg, shifted = fs._pcg, fs._shifted_lap_inverse
    signature = inspect.signature(shifted)
    cg_dtypes, spectrum_dtypes = [], []

    def spy_pcg(d, apply_minv, b, rtol):
        # b arrives in float64; _pcg casts it and iterates in the dtype of d
        minv_dtypes = set()

        def spy_minv(r):
            z = apply_minv(r)
            minv_dtypes.add((r.dtype, z.dtype))
            return z

        out = pcg(d, spy_minv, b, rtol)
        (minv_dtype,) = minv_dtypes
        cg_dtypes.append((d.dtype, *minv_dtype))
        return out

    def spy_inverse(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        spectrum_dtypes.append(np.dtype(bound.arguments["dtype"]))
        return shifted(*args, **kwargs)

    monkeypatch.setattr(fs, "_pcg", spy_pcg)
    monkeypatch.setattr(fs, "_shifted_lap_inverse", spy_inverse)
    rho, g = _small_problem()
    ubar = fs.solve_ubar(rho, 0.5)
    assert spectrum_dtypes == [np.float64]
    assert ubar.values.dtype == np.float64
    spectrum_dtypes.clear()
    hat = fs.solve_uhat(ubar, g, 0.5)
    # one spectrum per Newton step and one at the converged state, where the
    # four border columns are solved again
    assert len(spectrum_dtypes) == hat.iterations + 1
    assert set(spectrum_dtypes) == {np.dtype(np.float32)}
    assert len(cg_dtypes) == hat.iterations + 8
    assert set(cg_dtypes) == {(np.dtype(np.float32),) * 3}
    assert hat.field.values.dtype == np.float64
    assert hat.border_columns.dtype == np.float32


@pytest.mark.parametrize("eps", [0.05, 0.01])
def test_float32_inner_solve_keeps_the_electron_contract(eps):
    # cold, then warm from that solution for a density 1e-4 lighter; the
    # residual and the Gauss defect are rechecked here in float64
    grid = GridSpec(half_width=2.0, nodes=16)
    g = _background(grid)
    rho = ScalarField(grid, _background(grid, scale=0.9).values * 0.999)
    cold = fs.solve_field(rho, g, eps)
    moved = ScalarField(grid, 0.9999 * rho.values)
    warm = fs.solve_field(moved, g, eps, warm=cold)
    assert warm.newton_iterations > 0
    for sol, dens in ((cold, rho), (warm, moved)):
        source = g.values * np.exp(sol.u.values)
        f = eps**2 * fs._lap_interior(sol.uhat.values, grid.spacing) - source[1:-1, 1:-1, 1:-1]
        assert np.abs(f).max() <= fs.CONTRACT_RTOL * max(1.0, float(source.max()))
        mass = float(dens.values.sum()) * grid.cell_volume
        gauss = fs.gauss_imbalance(sol.u, dens, source, eps)
        assert abs(gauss) <= fs.GAUSS_GATE * max(1.0, mass)


def test_centroid_from_axis_sums_matches_node_coordinate_formula():
    grid = GridSpec(half_width=2.0, nodes=24)
    values = _background(grid, scale=0.6, center=(0.3, -0.5, 0.2)).values
    values = values * np.random.default_rng(5).uniform(0.5, 1.5, values.shape)
    coords = grid.node_coords()
    expected = (values[..., None] * coords).reshape(-1, 3).sum(axis=0) / values.sum()
    assert np.abs(fs._centroid(values, grid) - expected).max() <= 1e-14 * grid.half_width
    assert (fs._centroid(np.zeros_like(values), grid) == 0.0).all()


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


def test_no_electrons_returns_zero_from_any_start():
    # with g = 0 the electron mass S = sum(g e^U) is zero, which leaves the
    # centroid unknowns undefined; a solve must not reach the Schur complement
    grid = GridSpec(half_width=2.0, nodes=16)
    g0 = ScalarField(grid, np.zeros((grid.nodes,) * 3))
    ub = fs.solve_ubar(_background(grid, scale=0.5), 0.1)
    start = np.full((grid.nodes,) * 3, -0.5)
    for hat in (fs.solve_uhat(ub, g0, 0.1), fs.solve_uhat(ub, g0, 0.1, initial=start)):
        assert hat.iterations == 0
        assert (hat.field.values == 0.0).all()
    sol = fs.solve_field(_background(grid, scale=0.5), g0, 0.1)
    assert sol.newton_iterations == 0
    assert (sol.uhat.values == 0.0).all()


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
        new = _monopole(grid, -mhat, fs._centroid(src, grid), eps2)
        rhs = src[1:-1, 1:-1, 1:-1] / eps2
        rhs -= fs._lap_interior(new, h)
        coef = scipy.fft.dstn(rhs, type=1, norm="ortho") / -fs._neg_lap_eigs(rhs.shape[0], h)
        new[1:-1, 1:-1, 1:-1] = scipy.fft.dstn(coef, type=1, norm="ortho")
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
    expected = _monopole(grid, -mhat, fs._centroid(src, grid), eps**2)
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


def test_quasi_neutral_run_at_eps_001_completes(tmp_path):
    # the quasi-neutral workload's shape at eps = 0.01: with the centroid
    # lagged instead of solved for, Newton contracted only linearly and the
    # run aborted at step 8 on the 500-iteration CG cap
    cfg = make_scenario(
        grid=GridSpec(half_width=4.0, nodes=32),
        count=20_000,
        epsilon=0.01,
        time=TimeSpec(dt=0.005, t_end=10 * 0.005, checkpoint_every=1),
    )
    runner.run(cfg, tmp_path)
    run = load_run(tmp_path)
    assert run.meta["status"] == "ok"
    assert len(run.series["t"]) == 11
    scale = np.maximum(1.0, run.fields["geU_Linf"])
    assert (run.series["residual_inf"] <= fs.CONTRACT_RTOL * scale).all()
    assert (np.abs(run.series["gauss_imbalance"]) <= fs.GAUSS_GATE).all()
    assert (run.fields["uhat_max"] <= fs.UHAT_POSITIVE_TOL).all()


def test_warm_restart_from_solution_costs_no_newton_steps():
    grid = GridSpec(half_width=2.0, nodes=32)
    rho = ScalarField(grid, _background(grid, scale=0.9).values * 0.999)
    g = _background(grid)
    cold = fs.solve_field(rho, g, 0.05)
    warm = fs.solve_field(rho, g, 0.05, warm=cold)
    assert warm.newton_iterations == 0
    # interior untouched; the boundary row is re-derived from the converged
    # mass and centroid, which agree only to rounding
    assert np.array_equal(
        warm.uhat.values[1:-1, 1:-1, 1:-1], cold.uhat.values[1:-1, 1:-1, 1:-1]
    )
    assert np.abs(warm.uhat.values - cold.uhat.values).max() <= 1e-12


def _screened_problem():
    """32^3 near-neutral ion density and background on [-2, 2]^3."""
    grid = GridSpec(half_width=2.0, nodes=32)
    return ScalarField(grid, _background(grid, scale=0.9).values * 0.999), _background(grid)


@pytest.mark.parametrize("eps", [0.8, 0.25, 0.05])
def test_cold_solve_starts_from_the_screening_guess(eps):
    rho, g = _screened_problem()
    grid = rho.grid
    ub = fs.solve_ubar(rho, eps)
    guess = fs._quasi_neutral_guess(ub, g, eps**2, grid.spacing)
    cold = fs.solve_uhat(ub, g, eps)
    assert cold.history[0] == fs.solve_uhat(ub, g, eps, initial=guess).history[0]


def test_border_columns_are_refreshed_when_a_warm_solve_slows(monkeypatch):
    # one CG per Newton step for the residual; a cold solve adds the four
    # border columns (mass and centroid) at its first step and again at its
    # converged state. A warm solve reuses the columns it is given; the first
    # to take Newton steps on them sets the reference count, and a later one
    # that needs more steps re-solves them into a new array
    pcg = fs._pcg
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return pcg(*args, **kwargs)

    monkeypatch.setattr(fs, "_pcg", counted)
    for problem, eps in ((_small_problem, 0.5), (_screened_problem, 0.05)):
        calls.clear()
        cold = fs.solve_field(*problem(), eps)
        assert cold.newton_iterations > 1
        assert len(calls) == cold.newton_iterations + 8
        assert cold.border_newton is None
    rho, g = _screened_problem()

    def warm_solve(scale, warm):
        calls.clear()
        return fs.solve_field(ScalarField(rho.grid, scale * rho.values), g, 0.05, warm=warm)

    first = warm_solve(0.99, cold)
    assert first.newton_iterations > 0
    assert len(calls) == first.newton_iterations
    assert first.border_columns is cold.border_columns
    assert first.border_newton == first.newton_iterations
    within = warm_solve(0.99 * 0.999, first)
    assert 0 < within.newton_iterations <= first.border_newton
    assert len(calls) == within.newton_iterations
    assert within.border_columns is cold.border_columns
    assert within.border_newton == first.border_newton
    carried = first.border_columns.copy()
    slower = warm_solve(0.99 * 0.95, first)
    assert slower.newton_iterations > first.border_newton
    assert len(calls) == slower.newton_iterations + 4
    assert slower.border_columns is not first.border_columns
    assert slower.border_newton is None
    assert np.array_equal(first.border_columns, carried)
    # a warm solve with no Newton step makes no CG call and sets no count
    still = warm_solve(1.0, cold)
    assert still.newton_iterations == 0
    assert calls == []
    assert still.border_newton is None


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_cold_solve_returns_border_columns_of_its_converged_state(eps):
    # the columns a cold solve hands to the next solve are A^-1 B at the
    # converged w, to their CG tolerance; those of the screening guess, which
    # its first Newton step solves, miss it by far at eps 0.05. Checked in
    # float64: B_k against (M + diag(d)) Z_k, M Z = dstn(lam dstn(Z))
    rho, g = _screened_problem()
    grid = rho.grid
    h, eps2 = grid.spacing, eps**2
    hat = fs.solve_uhat(fs.solve_ubar(rho, eps), g, eps)
    w = hat.source[1:-1, 1:-1, 1:-1]
    shift = float(w.mean())
    lam = eps2 * fs._neg_lap_eigs(w.shape[0], h) + shift
    kd = fs._face_kernel(grid, fs._centroid(hat.source, grid), eps2)
    rtols = [fs.NEWTON_CG_RTOL] + [fs.CENTROID_COLUMN_RTOL] * 3
    for k, col in enumerate(hat.border_columns.astype(np.float64)):
        b = eps2 * fs._fold_boundary(np.zeros(w.shape), fs._on_faces(grid, kd[k]), h)
        applied = fs.dstn(lam * fs.dstn(col)) + (w - shift) * col
        assert np.linalg.norm(b - applied) <= 2.0 * rtols[k] * np.linalg.norm(b)


def test_warm_chain_reaches_the_cold_solutions():
    # a moving ion cloud solved once cold per position and once as a chain
    # of warm solves, each from the previous solution and its border columns
    grid = GridSpec(half_width=2.0, nodes=32)
    g = _background(grid)
    for eps in (0.5, 0.05):
        warm = None
        for k in range(4):
            center = (0.03 * k, -0.02 * k, 0.01 * k)
            rho = ScalarField(grid, _background(grid, scale=0.9, center=center).values * 0.999)
            cold = fs.solve_field(rho, g, eps)
            warm = fs.solve_field(rho, g, eps, warm=warm)
            scale = max(1.0, float(np.abs(cold.uhat.values).max()))
            assert np.abs(warm.uhat.values - cold.uhat.values).max() <= 1e-12 * scale


def test_newton_stops_at_the_first_iterate_that_meets_the_certificates():
    # a cold solve and a warm one stop as soon as |F|_inf is CERTIFICATE_MARGIN
    # times under the contract and the Gauss defect as far under its gate: no
    # step past that, which would only push the residual to round-off
    rho, g = _screened_problem()
    cold = fs.solve_field(rho, g, 0.05)
    warm = fs.solve_field(ScalarField(rho.grid, 0.999 * rho.values), g, 0.05, warm=cold)
    for sol in (cold, warm):
        scale = max(1.0, float((g.values * np.exp(sol.u.values)).max()))
        target = fs.CONTRACT_RTOL * scale / fs.CERTIFICATE_MARGIN
        *before, last = sol.newton_history
        assert len(before) == sol.newton_iterations > 0
        assert last <= target < min(before)
        assert abs(sol.gauss_imbalance) <= fs.GAUSS_GATE / fs.CERTIFICATE_MARGIN


def test_forcing_term_changes_the_path_not_the_answer(monkeypatch):
    rho, g = _screened_problem()
    mass = float(rho.values.sum()) * rho.grid.cell_volume
    for eps in (0.5, 0.05):
        solutions = [fs.solve_field(rho, g, eps)]
        with monkeypatch.context() as tight:
            tight.setattr(fs, "NEWTON_CG_RTOL", 1e-10)
            solutions.append(fs.solve_field(rho, g, eps))
        for sol in solutions:
            scale = max(1.0, float((g.values * np.exp(sol.u.values)).max()))
            assert sol.residual_inf <= fs.CONTRACT_RTOL * scale
            assert abs(sol.gauss_imbalance) <= fs.GAUSS_GATE * max(1.0, mass)
            assert sol.uhat.values.max() <= fs.UHAT_POSITIVE_TOL
        loose, exact = (sol.uhat.values for sol in solutions)
        # measured gaps 4.1e-15 (eps 0.5) and 3.6e-14 (eps 0.05), against
        # max|uhat| of 0.27 and 29
        assert np.abs(loose - exact).max() <= 1e-12 * max(1.0, float(np.abs(exact).max()))


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
    got = fs.gauss_imbalance(u, rho, g.values * np.exp(u.values), eps)
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
    # exp(705) is finite, but the Newton residual built on it is not: the
    # norm of the inner CG's right-hand side overflows
    with pytest.raises(fs.FieldSolveError, match="retry from a warm start"):
        fs.solve_uhat(ub, g, 0.5, initial=np.full((16, 16, 16), 705.0))


def test_newton_step_cap_raises_did_not_converge(monkeypatch):
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    monkeypatch.setattr(fs, "MAX_NEWTON", 1)
    with pytest.raises(fs.FieldSolveError, match="did not converge in 1 iterations") as info:
        fs.solve_uhat(ub, g, 0.5)
    assert re.search(r"mass imbalance \S+, centroid residual \d\.\d{3}e[+-]\d+\)", str(info.value))


def test_cg_cap_names_eps_newton_step_iterations_and_residual(monkeypatch):
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    monkeypatch.setattr(fs, "MAX_CG", 1)
    with pytest.raises(fs.FieldSolveError, match="did not reach rtol") as info:
        fs.solve_uhat(ub, g, 0.5)
    message = str(info.value)
    assert "in 1 iterations" in message
    assert "electron Newton step 1 at eps 0.5" in message
    assert "1 CG iterations in this solve" in message
    assert info.value.iterations == 1
    assert fs.NEWTON_CG_RTOL < info.value.residual < 1.0
    assert f"relative residual {info.value.residual:.3e}" in message


@pytest.mark.parametrize(
    "failing, solve",
    [
        (0, "residual solve"),
        (1, "border column mu"),
        (2, "border column c_x"),
        (3, "border column c_y"),
        (4, "border column c_z"),
        (10, "border column mu at the converged state"),
        (13, "border column c_z at the converged state"),
    ],
)
def test_cg_failure_names_the_failing_solve(monkeypatch, failing, solve):
    # a cold solve's first Newton step runs the residual solve, then the
    # border columns in the order mu, c_x, c_y, c_z; this one converges in 6
    # steps and then solves the columns again, named after its last step
    step = 6 if solve.endswith("converged state") else 1
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    pcg = fs._pcg
    calls = []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == failing + 1:
            raise fs.FieldSolveError("forced CG failure", residual=0.5, iterations=7)
        return pcg(*args, **kwargs)

    monkeypatch.setattr(fs, "_pcg", fail_once)
    with pytest.raises(fs.FieldSolveError, match="forced CG failure") as info:
        fs.solve_uhat(ub, g, 0.5)
    assert f"[electron Newton step {step} at eps 0.5, {solve}, " in str(info.value)
    assert info.value.iterations == 7


def test_ascent_direction_raises_line_search_stagnated(monkeypatch):
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    pcg = fs._pcg

    def negated(*args, **kwargs):
        x, it = pcg(*args, **kwargs)
        return -x, it

    monkeypatch.setattr(fs, "_pcg", negated)
    with pytest.raises(fs.FieldSolveError, match="line search stagnated") as info:
        fs.solve_uhat(ub, g, 0.5)
    assert re.search(r"mass imbalance \S+, centroid residual \d\.\d{3}e[+-]\d+\)", str(info.value))


def test_unreachable_margin_raises_line_search_stagnated_under_the_contract(monkeypatch):
    # with an infinite margin no iterate is certified: Newton runs to the
    # round-off floor, far under the contract, and the stagnated line search
    # raises there instead of returning the iterate
    rho, g = _small_problem()
    ub = fs.solve_ubar(rho, 0.5)
    monkeypatch.setattr(fs, "CERTIFICATE_MARGIN", math.inf)
    with pytest.raises(fs.FieldSolveError, match="line search stagnated") as info:
        fs.solve_uhat(ub, g, 0.5)
    assert info.value.residual <= fs.CONTRACT_RTOL


def test_zero_contract_makes_the_ion_solve_stall(monkeypatch):
    rho, _ = _small_problem()
    monkeypatch.setattr(fs, "CONTRACT_RTOL", 0.0)
    with pytest.raises(fs.FieldSolveError, match="stalled") as info:
        fs.solve_ubar(rho, 0.5)
    assert info.value.residual > 0.0


def test_pcg_returns_zero_for_a_zero_right_hand_side():
    b = np.zeros((6, 6, 6))
    x, iterations = fs._pcg(np.ones_like(b), fs._shifted_lap_inverse(6, 0.5, 1.0, 1.0), b, 1e-2)
    assert iterations == 0
    assert (x == 0.0).all()


def test_pcg_raises_on_a_non_finite_residual_with_its_iteration():
    # an infinite diagonal entry makes A p infinite there: alpha comes out
    # zero, and 0 * inf turns the updated residual into NaN at iteration 1
    d = np.ones((6, 6, 6))
    d[2, 3, 4] = np.inf
    b = np.random.default_rng(2).standard_normal(d.shape)
    minv = fs._shifted_lap_inverse(6, 0.5, 1.0, 1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(fs.FieldSolveError, match="residual became nan at iteration 1") as info:
            fs._pcg(d, minv, b, 1e-2)
    assert info.value.iterations == 1
    assert math.isnan(info.value.residual)


@pytest.mark.parametrize(
    "constant, value, message",
    [
        ("UHAT_POSITIVE_TOL", -1.0, "came out positive"),
    ],
)
def test_broken_invariant_raises(monkeypatch, constant, value, message):
    # the converged electron potential is negative, so only a tolerance moved
    # past it trips the check
    rho, g = _small_problem()
    monkeypatch.setattr(fs, constant, value)
    with pytest.raises(fs.FieldSolveError, match=message):
        fs.solve_field(rho, g, 0.5)


def test_gauss_defect_over_the_gate_raises(monkeypatch):
    # Newton stops with the defect far under the gate, so the audit is fed
    # one over it; a zero gate would stall Newton before the audit runs
    rho, g = _small_problem()
    monkeypatch.setattr(fs, "gauss_imbalance", lambda *args: 2.0 * fs.GAUSS_GATE)
    with pytest.raises(fs.FieldSolveError, match="Gauss-identity defect"):
        fs.solve_field(rho, g, 0.5)


def test_cached_grid_arrays_are_read_only():
    grid = GridSpec(half_width=2.0, nodes=16)
    sines = (fs._sine_matrix(14, np.dtype(np.float64)), fs._sine_matrix(14, np.dtype(np.float32)))
    for arr in (fs._neg_lap_eigs(14, grid.spacing), *sines, *fs._face_nodes(grid)):
        assert not arr.flags.writeable


def test_zero_solution_placeholder_shape():
    grid = GridSpec(half_width=2.0, nodes=8)
    sol = fs.zero_solution(grid, 0.5)
    assert np.sqrt((sol.e.values**2).sum(axis=-1).max()) == 0.0
    assert sol.newton_iterations == 0
