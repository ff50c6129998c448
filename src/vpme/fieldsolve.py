"""Electrostatic field solve on the truncated box.

The potential is split as U = Ubar + Uhat:

  -eps^2 Lap Ubar = rho            (ion part, linear)
   eps^2 Lap Uhat = g exp(Ubar + Uhat)   (electron part, nonlinear, Uhat < 0)

Both pieces use the 7-point Laplacian with Dirichlet data closed by a
monopole tail: +M/(4 pi eps^2 r) for the ion part and -mhat/(4 pi eps^2 r)
for the electron part, where M and mhat are the respective source masses and
r is the distance to the source centroid. The electron mass mhat depends on
the solution, so it is solved for as one more Newton unknown beside the
interior values. The centroid is refreshed at the head of each Newton step
but not differentiated, so Newton converges linearly.

The linear solve is a type-1 DST diagonalization, exact for this stencil and
checked once against the contract residual. The nonlinear solve is damped
Newton; the scalar mass unknown is eliminated by a Schur complement, whose
border column A^-1 dF/dmu is solved once per call, at the first step. Each
later step is then one conjugate-gradient solve on
A = -eps^2 Lap + diag(w), w = g exp(U) >= 0, preconditioned by the DST
inverse of M = -eps^2 Lap + mean(w); the ion part uses the same shifted DST
solve with shift 0. That inverse is exact, so for z = M^-1 r the product
A z = r + (w - mean(w)) z needs no stencil, and CG keeps A p by recurrence
from it (Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981): the CG loop only
applies M^-1 and multiplies by the diagonal d = w - mean(w).

One evaluator gives the state of an electron iterate: it puts the boundary
row -mu K around the interior values and returns the grid, the source
g exp(Ubar + Uhat) and the residuals F = eps^2 Lap_h Uhat - source and
G = vol sum(source) - mu. The Newton loop head and every line-search trial
call it, and the loop leaves through one positivity check and one return.

The 3-D DST-I (``dstn``) is applied as three BLAS matrix products with one
cached dense orthonormal sine matrix per interior size m, not by FFT: the
interior lengths in use have prime m+1, where FFT libraries are slowest.

Newton iterates to an internal target well below the 1e-10 contract residual
so that the summed interior residual (which is exactly the Gauss-identity
defect) stays below the 1e-8 * mass audit gate.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import ScalarField, VectorField, gradient

CONTRACT_RTOL = 1e-10
NEWTON_TARGET_RTOL = 1e-13
# inexact-Newton forcing term. The centroid is refreshed at the loop head and
# not differentiated, so Newton contracts only linearly: about 0.05 per step
# at eps 0.1 and 3e-3 at eps 0.5. A linear solve tighter than the step can
# gain is wasted, which is why the forcing term is 1e-2: it keeps the Newton
# step count of 1e-4, while 1e-1 doubles it at eps 0.1
NEWTON_CG_RTOL = 1e-2
UHAT_POSITIVE_TOL = 1e-8
GAUSS_GATE = 1e-8
COLD_START_EPS = 0.2
MASS_RTOL = 1e-12
MAX_NEWTON = 200
MAX_CG = 500


class FieldSolveError(RuntimeError):
    """Raised when a field solve cannot reach its residual contract."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        # inner CG iterations spent by the failed linear solve, when one failed
        self.iterations = iterations


@dataclass
class UhatResult:
    field: ScalarField
    iterations: int
    residual: float
    history: list = field(default_factory=list)
    cg_iterations: int = 0


@dataclass
class FieldSolution:
    u: ScalarField
    ubar: ScalarField
    uhat: ScalarField
    e: VectorField
    epsilon: float
    newton_iterations: int
    residual_inf: float
    gauss_imbalance: float
    newton_history: list = field(default_factory=list)
    cg_iterations: int = 0


# ---------------------------------------------------------------------------
# DST-I diagonalization of the Dirichlet Laplacian
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _neg_lap_eigs(m, h):
    """Eigenvalues of -Lap_h (zero Dirichlet) on the m^3 interior lattice (read-only)."""
    k = np.arange(1, m + 1)
    lam = (4.0 / h**2) * np.sin(0.5 * math.pi * k / (m + 1)) ** 2
    out = lam[:, None, None] + lam[None, :, None] + lam[None, None, :]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def _sine_matrix(m):
    """Orthonormal DST-I matrix S[j,k] = sqrt(2/(m+1)) sin(pi j k/(m+1)), read-only."""
    k = np.arange(1, m + 1)
    # reduce j*k modulo the period 2(m+1) in integers so the sine argument
    # stays below 2 pi and carries no rounding from large multiples of pi
    phase = np.outer(k, k) % (2 * (m + 1))
    out = math.sqrt(2.0 / (m + 1)) * np.sin(math.pi * phase / (m + 1))
    out.flags.writeable = False
    return out


def dstn(x):
    """Orthonormal DST-I of an (m, m, m) array along all three axes.

    Equal to ``scipy.fft.dstn(x, type=1, norm="ortho")``. S is symmetric
    and orthogonal, so the transform is its own inverse. Each axis is one
    BLAS product with the cached (m, m) sine matrix, O(m^4) flops in all
    against O(m^3 log m) for an FFT; at the sizes in use the dense products
    win because the FFT lengths m+1 are prime (47, 31 and 23 for the 48^3,
    32^3 and 24^3 grids) or small. Median per 3-D transform against
    scipy's pocketfft, one OpenBLAS thread, on a 2-vCPU x86-64 machine:

        m      pocketfft   dense
        22     0.76 ms     0.06 ms
        30     2.67 ms     0.17 ms
        46     11.4 ms     1.90 ms
        62     11.5 ms     5.45 ms
        126    525 ms      80 ms
        127    76 ms       62 ms
        198    2819 ms     315 ms
        255    794 ms      1058 ms

    The FFT wins only where m+1 has small factors and m is large, as at
    m+1 = 256 (257 nodes); no grid in use is that large.
    """
    m = x.shape[0]
    s = _sine_matrix(m)
    y = (s @ x.reshape(m, m * m)).reshape(m, m, m)
    y = s @ y
    return y @ s


def _shifted_lap_inverse(m, h, eps2, shift):
    """Exact solve r -> x of (-eps2 Lap_h + shift) x = r on the m^3 interior, zero Dirichlet.

    The shifted spectrum is built once here; each call of the returned
    function is two transforms and one division.
    """
    lam = eps2 * _neg_lap_eigs(m, h) + shift
    return lambda r: dstn(dstn(r) / lam)


def _lap_interior(u, h):
    """7-point Laplacian of a full-grid array, evaluated on the interior."""
    c = u[1:-1, 1:-1, 1:-1]
    return (
        u[2:, 1:-1, 1:-1]
        + u[:-2, 1:-1, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 1:-1, 2:]
        + u[1:-1, 1:-1, :-2]
        - 6.0 * c
    ) / h**2


def _fold_boundary(rhs, bc, h):
    """Move known Dirichlet neighbors of Lap_h onto the interior RHS."""
    b = bc / h**2
    rhs[0] -= b[0, 1:-1, 1:-1]
    rhs[-1] -= b[-1, 1:-1, 1:-1]
    rhs[:, 0] -= b[1:-1, 0, 1:-1]
    rhs[:, -1] -= b[1:-1, -1, 1:-1]
    rhs[:, :, 0] -= b[1:-1, 1:-1, 0]
    rhs[:, :, -1] -= b[1:-1, 1:-1, -1]
    return rhs


@lru_cache(maxsize=8)
def _node_coords(grid):
    """(N, N, N, 3) node positions of ``grid`` (read-only)."""
    out = grid.node_coords()
    out.flags.writeable = False
    return out


_FACES = (
    np.s_[0, :, :],
    np.s_[-1, :, :],
    np.s_[:, 0, :],
    np.s_[:, -1, :],
    np.s_[:, :, 0],
    np.s_[:, :, -1],
)


def _monopole_values(grid, charge, center, eps2):
    """charge/(4 pi eps2 r) on the boundary faces (interior left zero)."""
    coords = _node_coords(grid)
    out = np.zeros((grid.nodes,) * 3)
    c = np.asarray(center)
    for face in _FACES:
        r = np.linalg.norm(coords[face] - c, axis=-1)
        np.maximum(r, 0.5 * grid.spacing, out=r)
        out[face] = charge / (4.0 * math.pi * eps2 * r)
    return out


def _centroid(values, grid):
    """Centroid of a nonnegative node array; the origin when it sums to zero."""
    total = float(values.sum())
    if total <= 0.0:
        return np.zeros(3)
    ax = grid.axis()
    planes = (values.sum(axis=(1, 2)), values.sum(axis=(0, 2)), values.sum(axis=(0, 1)))
    return np.array([float(s @ ax) for s in planes]) / total


def _assemble(interior, bc):
    full = bc.copy()
    full[1:-1, 1:-1, 1:-1] = interior
    return full


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------


def _pcg(d, apply_minv, b, rtol):
    """Preconditioned CG on A x = b, A = M + diag(d), with M^-1 applied exactly.

    For z = M^-1 r, A z = r + d z, so A p follows p through the same update,
    A p <- A z + beta A p, and no stencil is applied.
    """
    x = np.zeros_like(b)
    norm_b = math.sqrt(float(np.vdot(b, b)))
    if norm_b == 0.0:
        return x, 0
    r = b.copy()
    z = apply_minv(r)
    p = z.copy()
    ap = r + d * z
    rz = float(np.vdot(r, z))
    for it in range(1, MAX_CG + 1):
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        res = math.sqrt(float(np.vdot(r, r)))
        if res <= rtol * norm_b:
            return x, it
        if not math.isfinite(res):
            raise FieldSolveError(
                f"inner conjugate-gradient residual became {res} at iteration {it}; "
                "retry from a warm start near the solution",
                residual=res,
                iterations=it,
            )
        z = apply_minv(r)
        rz_next = float(np.vdot(r, z))
        beta = rz_next / rz
        p *= beta
        p += z
        ap *= beta
        ap += r
        ap += d * z
        rz = rz_next
    rel = math.sqrt(float(np.vdot(r, r))) / norm_b
    raise FieldSolveError(
        f"inner conjugate-gradient solve did not reach rtol {rtol} in {MAX_CG} iterations "
        f"(relative residual {rel:.3e})",
        residual=rel,
        iterations=MAX_CG,
    )


# ---------------------------------------------------------------------------
# ion potential (linear)
# ---------------------------------------------------------------------------


def _check_epsilon(epsilon):
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def solve_ubar(rho, epsilon):
    """Solve -eps^2 Lap Ubar = rho with the monopole Dirichlet closure."""
    _check_epsilon(epsilon)
    grid = rho.grid
    h = grid.spacing
    eps2 = epsilon**2
    mass = float(rho.values.sum()) * grid.cell_volume
    center = _centroid(rho.values, grid)
    bc = _monopole_values(grid, mass, center, eps2)
    rhs = -rho.values[1:-1, 1:-1, 1:-1] / eps2
    _fold_boundary(rhs, bc, h)
    u = _assemble(-_shifted_lap_inverse(rhs.shape[0], h, 1.0, 0.0)(rhs), bc)

    scale = max(math.sqrt(float(np.vdot(rho.values, rho.values))), 1e-300)
    defect = eps2 * _lap_interior(u, h) + rho.values[1:-1, 1:-1, 1:-1]
    rel = math.sqrt(float(np.vdot(defect, defect))) / scale
    if rel <= CONTRACT_RTOL:
        return ScalarField(grid, u)
    raise FieldSolveError(
        f"ion potential solve stalled at relative residual {rel:.3e}", residual=rel
    )


# ---------------------------------------------------------------------------
# electron potential (nonlinear)
# ---------------------------------------------------------------------------


def _quasi_neutral_guess(ubar, g, eps2, h):
    """Screening-limit start: Uhat ~ log(rho/g) - Ubar, clamped nonpositive.

    rho is recovered exactly from the discrete operator (eps^2 Lap Ubar =
    -rho on the interior), so the guess has residual eps^2 Lap log(rho/g),
    which vanishes with eps; a zero start would instead face sources of
    order exp(Ubar) ~ exp(1/eps^2).
    """
    rho = np.zeros_like(ubar.values)
    rho[1:-1, 1:-1, 1:-1] = np.clip(-eps2 * _lap_interior(ubar.values, h), 0.0, None)
    # additive floor keeps the log smooth where the recovered density
    # underflows or goes slightly negative in the far field
    delta = 1e-3 * max(float(rho.max()), 1e-300)
    ratio = (rho + delta) / (g.values + delta)
    return np.minimum(0.0, np.log(ratio) - ubar.values)


def solve_uhat(ubar, g, epsilon, initial=None):
    """Damped-Newton solve of eps^2 Lap Uhat = g exp(Ubar + Uhat).

    ``initial`` warm-starts the iteration (full-grid array or ScalarField).
    Cold starts below eps = 0.2 begin from the quasi-neutral screening
    guess instead of zero.

    The monopole boundary row -mu K, K = 1/(4 pi eps^2 r), depends on the
    electron mass, which depends on the solution, so the scalar mu is a
    Newton unknown beside the interior Uhat, with the mass residual
    G = vol sum(g e^U) - mu. The mass responds to mu with a gain of order
    1/eps^2, which an update of mu outside the Newton loop cannot settle to
    round-off at small eps. Each step eliminates mu by a Schur complement,
    so its linear solves are the interior CG: one for the residual, plus,
    at the first step only, one for the border column, which the later
    steps reuse. The centroid in r is refreshed at the head of each step
    and not differentiated, so the contraction is linear.

    Each Newton step builds the shifted spectrum of M = -eps^2 Lap_h +
    mean(w) once. Its DST inverse is exact, so the CG needs only M^-1 and
    the diagonal d = w - mean(w): A p is kept by recurrence, not applied.
    A CG that fails raises FieldSolveError naming eps, the Newton step, the
    CG iterations spent in this call and the reached relative residual.
    """
    _check_epsilon(epsilon)
    grid = ubar.grid
    h = grid.spacing
    eps2 = epsilon**2
    vol = grid.cell_volume
    inner = np.s_[1:-1, 1:-1, 1:-1]

    if initial is None and epsilon < COLD_START_EPS:
        initial = _quasi_neutral_guess(ubar, g, eps2, h)
    if initial is None:
        uh = np.zeros((grid.nodes,) * 3)
    else:
        uh = np.array(initial.values if isinstance(initial, ScalarField) else initial)

    ubv = ubar.values
    history = []
    cg_total = 0
    accepted = 0

    def _state(interior, mu, kern):
        """Iterate with boundary row -mu K: (u, g e^(Ubar + u), F, G)."""
        u = _assemble(interior, -mu * kern)
        # the exponent is evaluated as one sum: Ubar and Uhat cancel to O(1)
        # in the screened bulk while each alone overflows exp at small eps
        with np.errstate(over="ignore"):
            src = g.values * np.exp(ubv + u)
        f = eps2 * _lap_interior(u, h) - src[inner]
        return u, src, f, float(src.sum()) * vol - mu

    with np.errstate(over="ignore"):
        src = g.values * np.exp(ubv + uh)
    contract_tol = CONTRACT_RTOL * max(1.0, float(src.max()))
    # the electron mass uses the same all-nodes sum as the ion mass so the
    # two monopole closures cancel exactly at neutrality
    mu = float(src.sum()) * vol
    prev_res = math.inf
    # border column A^-1 dF/dmu of the first Newton step, reused by the rest
    z2 = None

    while True:
        # boundary row per unit electron mass, K = 1/(4 pi eps^2 r); a start
        # that overflows gives a NaN centroid, so its source fails the check
        with np.errstate(invalid="ignore"):
            kern = _monopole_values(grid, 1.0, _centroid(src, grid), eps2)
            uh, src, f, gap = _state(uh[inner], mu, kern)
        if not np.isfinite(src).all():
            raise FieldSolveError(
                "electron density overflowed during Newton iteration; "
                "retry from a warm start near the solution",
                residual=history[-1] if history else None,
            )
        res = float(np.abs(f).max())
        history.append(res)
        target = NEWTON_TARGET_RTOL * max(1.0, float(src.max()))
        at_floor = res >= 0.5 * prev_res and res <= 100.0 * target
        mass_ok = abs(gap) <= MASS_RTOL * max(1.0, mu + gap)
        if mass_ok and (res <= target or at_floor):
            break
        if accepted >= MAX_NEWTON:
            raise FieldSolveError(
                f"electron Newton did not converge in {MAX_NEWTON} iterations "
                f"(residual {res:.3e}, mass imbalance {gap:.3e}); "
                "retry from a warm start near the solution",
                residual=res,
            )
        prev_res = res

        # Newton system [[-A, c], [vol w^T, dG/dmu]] [du, dmu] = -[F, G] with
        # A = -eps^2 Lap_h + diag(w) and c = dF/dmu, the boundary row folded
        # onto the interior; eliminating dmu leaves the solves z1 = A^-1 F and
        # z2 = A^-1 c, each preconditioned by the exact inverse of
        # A - diag(w - mean(w)). z2, the interior response to a unit change
        # of mu, is solved at the first step only: with the centroid lagged,
        # reusing it left the Newton step counts unchanged
        w = src[inner]
        shift = float(w.mean())
        minv = _shifted_lap_inverse(w.shape[0], h, eps2, shift)
        d = w - shift
        try:
            z1, it = _pcg(d, minv, f, NEWTON_CG_RTOL)
            cg_total += it
            if z2 is None:
                c = eps2 * _fold_boundary(np.zeros_like(f), kern, h)
                z2, it = _pcg(d, minv, c, NEWTON_CG_RTOL)
                cg_total += it
        except FieldSolveError as exc:
            raise FieldSolveError(
                f"{exc} [electron Newton step {accepted + 1} at eps {epsilon:g}, "
                f"{cg_total + exc.iterations} CG iterations in this solve]",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        dgdmu = -1.0 - vol * float((src * kern).sum())
        dmu = -(gap + vol * float(np.vdot(w, z1))) / (dgdmu + vol * float(np.vdot(w, z2)))
        delta = z1 + dmu * z2

        merit = max(res, abs(gap))
        for k in range(31):
            alpha = 0.5**k
            mu_trial = mu + alpha * dmu
            trial, trial_src, f_trial, gap_trial = _state(uh[inner] + alpha * delta, mu_trial, kern)
            merit_trial = max(float(np.abs(f_trial).max()), abs(gap_trial))
            if np.isfinite(trial_src).all() and merit_trial < merit:
                uh, mu, src = trial, mu_trial, trial_src
                accepted += 1
                break
        else:
            if res <= contract_tol and mass_ok:
                break
            raise FieldSolveError(
                f"electron Newton line search stagnated at residual {res:.3e} "
                f"(mass imbalance {gap:.3e}); retry from a warm start near the solution",
                residual=res,
            )

    worst = float(uh.max())
    if worst > UHAT_POSITIVE_TOL:
        raise FieldSolveError(
            f"electron potential came out positive (max {worst:.3e}); solver invariant broken",
            residual=res,
        )
    return UhatResult(
        field=ScalarField(grid, uh),
        iterations=accepted,
        residual=res,
        history=history,
        cg_iterations=cg_total,
    )


# ---------------------------------------------------------------------------
# combined solve and audits
# ---------------------------------------------------------------------------


def gauss_imbalance(u, rho, g, epsilon):
    """Defect of the discrete Gauss identity on the interior.

    Summing eps^2 Lap_h U over interior nodes telescopes to a boundary flux;
    the identity balances it against the interior integral of g e^U - rho.
    The return value equals the interior sum of the nonlinear residual times
    the cell volume, so it audits solver convergence structurally.
    """
    grid = u.grid
    h = grid.spacing
    uv = u.values
    flux = (
        (uv[0, 1:-1, 1:-1] - uv[1, 1:-1, 1:-1]).sum()
        + (uv[-1, 1:-1, 1:-1] - uv[-2, 1:-1, 1:-1]).sum()
        + (uv[1:-1, 0, 1:-1] - uv[1:-1, 1, 1:-1]).sum()
        + (uv[1:-1, -1, 1:-1] - uv[1:-1, -2, 1:-1]).sum()
        + (uv[1:-1, 1:-1, 0] - uv[1:-1, 1:-1, 1]).sum()
        + (uv[1:-1, 1:-1, -1] - uv[1:-1, 1:-1, -2]).sum()
    )
    flux *= epsilon**2 * h
    inner = slice(1, -1)
    source = (
        g.values[inner, inner, inner] * np.exp(uv[inner, inner, inner])
        - rho.values[inner, inner, inner]
    ).sum() * grid.cell_volume
    return float(flux - source)


def solve_field(rho, g, epsilon, uhat_initial=None):
    """Full potential/field solve for a deposited ion density."""
    if rho.grid != g.grid:
        raise ValueError("ion density and background live on different grids")
    if float(rho.values.min()) < 0.0:
        raise ValueError("ion density has negative values")
    mass = float(rho.values.sum()) * rho.grid.cell_volume
    if mass > 1.0 + 1e-9:
        raise ValueError(f"deposited ion mass {mass!r} exceeds 1 beyond tolerance")
    ubar = solve_ubar(rho, epsilon)
    hat = solve_uhat(ubar, g, epsilon, initial=uhat_initial)
    u = ScalarField(rho.grid, ubar.values + hat.field.values)
    gauss = gauss_imbalance(u, rho, g, epsilon)
    if abs(gauss) > GAUSS_GATE * max(1.0, mass):
        raise FieldSolveError(
            f"Gauss-identity defect {gauss!r} exceeds gate for mass {mass!r}",
            residual=hat.residual,
        )
    return FieldSolution(
        u=u,
        ubar=ubar,
        uhat=hat.field,
        e=VectorField(rho.grid, -gradient(u)),
        epsilon=epsilon,
        newton_iterations=hat.iterations,
        residual_inf=hat.residual,
        gauss_imbalance=gauss,
        newton_history=hat.history,
        cg_iterations=hat.cg_iterations,
    )


def zero_solution(grid, epsilon):
    """Field-off placeholder: identically zero potentials and fields."""
    zs = ScalarField(grid, np.zeros((grid.nodes,) * 3))
    return FieldSolution(
        u=zs,
        ubar=zs,
        uhat=zs,
        e=VectorField(grid, np.zeros((grid.nodes,) * 3 + (3,))),
        epsilon=epsilon,
        newton_iterations=0,
        residual_inf=0.0,
        gauss_imbalance=0.0,
    )

