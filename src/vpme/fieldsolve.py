"""Electrostatic field solve on the truncated box.

The potential is split as U = Ubar + Uhat:

  -eps^2 Lap Ubar = rho            (ion part, linear)
   eps^2 Lap Uhat = g exp(Ubar + Uhat)   (electron part, nonlinear, Uhat < 0)

Both pieces use the 7-point Laplacian with Dirichlet data closed by a
monopole tail: +M/(4 pi eps^2 r) for the ion part and -mhat/(4 pi eps^2 r)
for the electron part, where M and mhat are the respective source masses and
r is the distance to the source centroid. The electron mass mhat and the
electron centroid depend on the solution, so they are solved for as four
more Newton unknowns beside the interior values, and Newton converges
superlinearly up to its inexact linear solves (Knoll & Keyes, J. Comput.
Phys. 193, 2004: every unknown the residual depends on is in the Jacobian).

The linear solve is a type-1 DST diagonalization, exact for this stencil and
checked once against the contract residual. The nonlinear solve is damped
Newton, started cold from the screening guess log(rho/g) - Ubar; the four
scalar unknowns are eliminated by a Schur complement, whose border columns
A^-1 [dF/dmu, dF/dc] are a cache of A^-1 B carried by the returned
FieldSolution to the next, warm-started solve. Inexact Newton assumes a
Jacobian that matches the iterate (Knoll & Keyes 2004), so the cache is
kept at a converged operator: a cold solve solves the columns at its first
step, for its own Newton, and again at its converged state, which it
returns; a warm solve reuses the columns it is given, and the first warm
solve to take Newton steps on them records how many it took. A later warm
solve that needs more steps than that re-solves them at its own converged
state into a new array. Each Newton step is then one conjugate-gradient
solve on A = -eps^2 Lap + diag(w), w = g exp(U) >= 0, preconditioned by the
DST inverse of M = -eps^2 Lap + mean(w); the ion part uses the same shifted DST
solve with shift 0. That inverse is exact, so for z = M^-1 r the product
A z = r + (w - mean(w)) z needs no stencil, and CG keeps A p by recurrence
from it (Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981): the CG loop only
applies M^-1 and multiplies by the diagonal d = w - mean(w).

One evaluator gives the state of an electron iterate: it puts the boundary
row -mu K(c) around the interior values and returns the grid, the source
g exp(Ubar + Uhat), the residuals F = eps^2 Lap_h Uhat - source,
G = vol sum(source) - mu and H = c sum(source) - sum(source x), and the
line-search merit. The start and every line-search trial call it; the
accepted trial's state is the next Newton step's state, so a step evaluates
the full grid once. K and dK/dc live on a cached list of the face nodes.
The loop leaves through one positivity check and one return.

The 3-D DST-I (``dstn``) is applied as three BLAS matrix products with one
cached dense orthonormal sine matrix per interior size m and dtype, not by
FFT: the interior lengths in use have prime m+1, where FFT libraries are
slowest.

Precision. The electron Newton's inner CG runs in float32 from end to end:
the sine matrix, the shifted spectrum of M, the diagonal d and the CG
vectors. ``_pcg`` scales the float64 right-hand side to unit norm before
casting it to the dtype of d (so that float32 neither overflows nor
underflows in its inner products) and returns x in float64. Everything
that certifies the solution stays float64: the residuals F, G, H and the
merit, the line search, the Schur complement, the contract and positivity
checks, the Gauss audit and the whole ion solve, whose contract is 1e-10.
That is sound because the CG only has to meet its forcing term: in float32
the recurrence A z = r + d z holds to about 1e-7, far below the 1e-3 (1e-2
for the centroid columns) that an inner solve must reach, and Newton
converges on a residual evaluated in float64 (inexact Newton, Knoll & Keyes
2004), so the converged Uhat meets the same contract.

Newton stops at the first iterate that passes the contract residual and the
Gauss gate (the summed interior residual times the cell volume, up to the ion
solve's own summed defect) with a margin of CERTIFICATE_MARGIN.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .mesh import ScalarField, VectorField, gradient

CONTRACT_RTOL = 1e-10
# the factor by which the electron Newton's last iterate must pass CONTRACT_RTOL and GAUSS_GATE
CERTIFICATE_MARGIN = 100.0
# inexact-Newton forcing term, also the tolerance of the mass border column.
# With the centroid among the unknowns Newton contracts superlinearly, so the
# step is limited by the linear solve. Newton / CG totals of whole runs of
# the quasi-neutral workload shape (32^3, 2e4 ions, seed 1234) with the
# float32 CG, at forcing terms 1e-2, 1e-3 and 1e-4:
#   eps 0.1,  20 steps:  106 / 381    86 / 404    80 / 494
#   eps 0.02, 10 steps:   77 / 1020   72 / 1308   73 / 1725
#   eps 0.01, 10 steps:  119 / 3166  120 / 4445  120 / 5780
# At eps 0.1 a warm solve takes 4 Newton steps and 18-19 CG iterations at
# 1e-3, against 4-5 steps at 1e-2 and 3-4 at 1e-4. 1e-4 costs CG at every
# eps; 1e-2 saves CG at every eps but takes 23% more Newton steps at eps 0.1
# and 7% more at 0.02
NEWTON_CG_RTOL = 1e-3
# the three centroid border columns only steer c: solving them to 1e-2
# leaves every Newton step count on the workload shapes unchanged and saves
# a CG iteration each in the cold solve
CENTROID_COLUMN_RTOL = 1e-2
UHAT_POSITIVE_TOL = 1e-8
GAUSS_GATE = 1e-8
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
    # A^-1 [dF/dmu, dF/dc / mu] as a float32 (4, m, m, m) array; None if never solved
    border_columns: np.ndarray = None
    # Newton steps of the first warm solve that reused border_columns; None until one has
    border_newton: int = None
    # g e^(Ubar + Uhat) on the full grid at the returned Uhat, for the Gauss audit
    source: np.ndarray = None


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
    # the electron solve's border columns, reused by a solve warm-started from this
    # one, and UhatResult.border_newton, which decides when that solve refreshes them
    border_columns: np.ndarray = None
    border_newton: int = None


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
def _sine_matrix(m, dtype):
    """Orthonormal DST-I matrix S[j,k] = sqrt(2/(m+1)) sin(pi j k/(m+1)) in ``dtype``, read-only.

    Built in float64 and rounded once to ``dtype``.
    """
    k = np.arange(1, m + 1)
    # reduce j*k modulo the period 2(m+1) in integers so the sine argument
    # stays below 2 pi and carries no rounding from large multiples of pi
    phase = np.outer(k, k) % (2 * (m + 1))
    out = (math.sqrt(2.0 / (m + 1)) * np.sin(math.pi * phase / (m + 1))).astype(dtype, copy=False)
    out.flags.writeable = False
    return out


def dstn(x):
    """Orthonormal DST-I of an (m, m, m) array along all three axes.

    Equal to ``scipy.fft.dstn(x, type=1, norm="ortho")``. S is symmetric
    and orthogonal, so the transform is its own inverse. The transform
    follows the dtype of ``x``: a float32 input is transformed with a
    float32 S (single-precision BLAS) and comes back float32, accurate to
    a few 1e-7 relative. Each axis is one BLAS product with the cached
    (m, m) sine matrix, O(m^4) flops in all against O(m^3 log m) for an
    FFT; at the sizes in use the dense products win because the FFT
    lengths m+1 are prime (47, 31 and 23 for the 48^3, 32^3 and 24^3
    grids) or small. Median per 3-D transform against scipy's pocketfft
    (float64), one OpenBLAS thread, on a 2-vCPU x86-64 machine:

        m      pocketfft   dense float64   dense float32
        22     0.35 ms     0.029 ms        0.023 ms
        30     1.10 ms     0.115 ms        0.048 ms
        46     5.17 ms     0.97 ms         0.25 ms
        62     5.14 ms     2.91 ms         1.17 ms
        126    355 ms      38.5 ms         16.1 ms
        127    43.8 ms     42.6 ms         22.0 ms
        198    2100 ms     227 ms          121 ms
        255    552 ms      678 ms          279 ms

    In float64 the FFT wins only where m+1 has small factors and m is
    large, as at m+1 = 256 (257 nodes); no grid in use is that large.
    """
    m = x.shape[0]
    s = _sine_matrix(m, x.dtype)
    y = (s @ x.reshape(m, m * m)).reshape(m, m, m)
    y = s @ y
    return y @ s


def _shifted_lap_inverse(m, h, eps2, shift, dtype=np.float64):
    """Exact solve r -> x of (-eps2 Lap_h + shift) x = r on the m^3 interior, zero Dirichlet.

    The shifted spectrum is built once here, in float64 and rounded to
    ``dtype``; each call of the returned function is two transforms and one
    division, in ``dtype`` for an input of that dtype.
    """
    lam = (eps2 * _neg_lap_eigs(m, h) + shift).astype(dtype, copy=False)
    return lambda r: dstn(dstn(r) / lam)


def _lap_interior(u, h):
    """7-point Laplacian of a full-grid array, evaluated on the interior.

    Flat index: the node (i, j, k) is i N^2 + j N + k in ``u.reshape(-1)``,
    so its six neighbours are the flat index plus or minus 1, N and N^2.
    The stencil is summed over the contiguous flat span from the first
    interior node (1, 1, 1) to the last, each neighbour being one
    contiguous slice, into a buffer laid out as (N - 2, N, N); the nodes of
    the span that lie on a face get a meaningless value there, and the
    division by h^2 reads the interior out of it into a contiguous
    (N - 2)^3 array. The terms are added in the order
    x+, x-, y+, y-, z+, z-, then -6 u, as per-axis slices would add them, so
    the result is bitwise that of the strided form at about half its time.
    """
    n = u.shape[0]
    m, n2 = n - 2, n * n
    flat = u.reshape(-1)
    start = n2 + n + 1
    stop = start + (m - 1) * (n2 + n + 1) + 1
    buf = np.empty(m * n2)
    s = buf[: stop - start]
    np.add(flat[start + n2 : stop + n2], flat[start - n2 : stop - n2], out=s)
    s += flat[start + n : stop + n]
    s += flat[start - n : stop - n]
    s += flat[start + 1 : stop + 1]
    s += flat[start - 1 : stop - 1]
    s -= 6.0 * flat[start:stop]
    return np.divide(buf.reshape(m, n, n)[:, :m, :m], h**2)


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
def _face_nodes(grid):
    """Flat indices (nb,) of the nodes on the faces of ``grid`` and the rows (1, x, y, z) (4, nb).

    Both are read-only.
    """
    n = grid.nodes
    on_face = np.ones((n, n, n), dtype=bool)
    on_face[1:-1, 1:-1, 1:-1] = False
    index = np.flatnonzero(on_face)
    ax = grid.axis()
    rows = np.stack([np.ones(index.size)] + [ax[i] for i in np.unravel_index(index, on_face.shape)])
    index.flags.writeable = False
    rows.flags.writeable = False
    return index, rows


def _face_kernel(grid, center, eps2):
    """Rows (K, dK/dc) on the face nodes, (4, nb).

    K = 1/(4 pi eps2 r) and dK/dc = (x - c)/(4 pi eps2 r^3), with r = |x - c|
    clamped at h/2, where dK/dc is zero.
    """
    out = _face_nodes(grid)[1] - np.concatenate(([0.0], center))[:, None]
    diff = out[1:]
    r = np.sqrt(diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2)
    clamped = r < 0.5 * grid.spacing
    r[clamped] = 0.5 * grid.spacing
    out[0] = 1.0 / (4.0 * math.pi * eps2 * r)
    diff *= out[0] / r**2
    diff[:, clamped] = 0.0
    return out


def _on_faces(grid, face_values):
    """Full-grid array holding ``face_values`` on the face nodes, zero inside."""
    out = np.zeros((grid.nodes,) * 3)
    out.reshape(-1)[_face_nodes(grid)[0]] = face_values
    return out


def _moments(values, ax):
    """(sum(v), sum(v x), sum(v y), sum(v z)) of a cube of node values at ``ax`` on every axis.

    One matrix product contracts the last axis against (1, ax); the other
    two axes are summed on the (n, n) results.
    """
    n = ax.size
    t = values.reshape(n * n, n) @ np.stack((np.ones(n), ax), axis=1)
    plane = t[:, 0].reshape(n, n)
    return np.array([plane.sum(), plane.sum(axis=1) @ ax, plane.sum(axis=0) @ ax, t[:, 1].sum()])


def _centroid(values, grid):
    """Centroid of a nonnegative node array; the origin when it sums to zero."""
    total = float(values.sum())
    if total <= 0.0:
        return np.zeros(3)
    return _moments(values, grid.axis())[1:] / total


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients
# ---------------------------------------------------------------------------


def _pcg(d, apply_minv, b, rtol):
    """Preconditioned CG on A x = b, A = M + diag(d), with M^-1 applied exactly.

    For z = M^-1 r, A z = r + d z, so A p follows p through the same update,
    A p <- A z + beta A p, and no stencil is applied. The iteration runs in
    the dtype of ``d``, which ``apply_minv`` keeps, on b scaled to unit
    2-norm in float64: in float32 that keeps the inner products clear of
    overflow for a large b and of underflow to a zero norm for a tiny one.
    x comes back float64.
    """
    scale = math.sqrt(float(np.vdot(b, b)))
    if not math.isfinite(scale):
        raise FieldSolveError(
            f"inner conjugate-gradient right-hand side has norm {scale}; "
            "retry from a warm start near the solution",
            residual=scale,
            iterations=0,
        )
    if scale == 0.0:
        return np.zeros(b.shape), 0
    r = (b / scale).astype(d.dtype)
    norm_b = math.sqrt(float(np.vdot(r, r)))
    x = np.zeros_like(r)
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
            return np.multiply(x, scale, dtype=np.float64), it
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
    # the monopole mass/(4 pi eps^2 r) on the faces; the interior is written below
    u = _on_faces(grid, mass * _face_kernel(grid, center, eps2)[0])
    rhs = -rho.values[1:-1, 1:-1, 1:-1] / eps2
    _fold_boundary(rhs, u, h)
    u[1:-1, 1:-1, 1:-1] = -_shifted_lap_inverse(rhs.shape[0], h, 1.0, 0.0)(rhs)

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


# the Newton unknowns beside the interior Uhat, in border-column order
_BORDER_UNKNOWNS = ("mu", "c_x", "c_y", "c_z")


def solve_uhat(ubar, g, epsilon, initial=None, border_columns=None, border_newton=None):
    """Damped-Newton solve of eps^2 Lap Uhat = g exp(Ubar + Uhat).

    ``initial`` warm-starts the iteration (a full-grid array) and
    ``border_columns`` and ``border_newton`` reuse those of an earlier solve
    on the same grid (``UhatResult``). A cold start begins from the
    quasi-neutral screening guess at every eps: on the workload shapes it
    is never more than one Newton step behind a zero start, and from eps
    0.3 down it saves 3 or more (6 against 17 at eps 0.15). A background
    with no mass has no electrons, so Uhat = 0 is returned exactly, after
    no iteration.

    The monopole boundary row -mu K(c), K = 1/(4 pi eps^2 |x - c|), depends
    on the electron mass mu and on the centroid c of g e^U, and both depend
    on the solution. So mu and the three components of c are Newton
    unknowns beside the interior Uhat, with the mass residual
    G = vol sum(g e^U) - mu and the centroid residual H = c S - sum(g e^U x),
    S = sum(g e^U). The mass responds to mu with a gain of order 1/eps^2,
    which an update outside the Newton loop cannot settle to round-off at
    small eps, and a centroid refreshed outside it makes Newton converge
    only linearly. Each step eliminates the four scalars by a 4x4 Schur
    complement. Its border columns A^-1 [dF/dmu, dF/dc] are solved at the
    first step of a call given none, for that call's own Newton, and again
    at its converged state: those are the ones returned. A call given
    columns reuses them, so a step is one interior CG solve for the
    residual. ``border_newton`` is the Newton count of the first call that
    took steps on the given columns (``UhatResult.border_newton``; None
    until one has): a call given None returns its own count, a call that
    needs more steps than it re-solves the columns at its converged state
    into a new array (the given one is never written) and returns None. A
    warm solve held by stale columns contracts about as slowly as its
    columns are old: on the quasi-neutral workload (eps 0.1) the first
    warm solve took 4 Newton steps on the columns of the screening guess
    and takes 3 on those of the converged t = 0 state. The
    line search moves the interior, mu and c together on the merit
    max(|F|_inf, |G|, vol |H|_inf); the accepted trial's state is the next
    step's state. It stops at the first iterate where |F|_inf and vol |sum F|
    are CERTIFICATE_MARGIN times under the contract and the Gauss gate and |G|
    and |H|_inf meet MASS_RTOL; a stagnated line search raises.

    Each Newton step builds the shifted spectrum of M = -eps^2 Lap_h +
    mean(w) once, in float32. Its DST inverse is exact (to float32
    rounding), so the CG needs only M^-1 and the diagonal d = w - mean(w):
    A p is kept by recurrence, not applied. ``_pcg`` runs the CG in float32
    on the right-hand side scaled to unit norm; every residual, the line
    search and the Schur complement stay float64.
    A CG that fails raises FieldSolveError naming eps, the Newton step, the
    solve (the residual or a border column), the CG iterations spent in
    this call and the reached relative residual.
    """
    _check_epsilon(epsilon)
    grid = ubar.grid
    if not g.values.any():
        # no electrons: Uhat = 0 is exact, S = 0 leaves the centroid undefined,
        # and g e^U is g itself
        return UhatResult(
            ScalarField(grid, np.zeros((grid.nodes,) * 3)), 0, 0.0, [0.0], source=g.values
        )
    h = grid.spacing
    eps2 = epsilon**2
    vol = grid.cell_volume
    inner = np.s_[1:-1, 1:-1, 1:-1]
    ax = grid.axis()
    face_index, face_rows = _face_nodes(grid)
    carried = border_columns is not None
    uh = _quasi_neutral_guess(ubar, g, eps2, h) if initial is None else initial

    ubv = ubar.values
    history = []
    cg_total = 0
    accepted = 0

    def _state(interior, mu, c):
        """The iterate with boundary row -mu K(c), its source, residuals and merit."""
        kd = _face_kernel(grid, c, eps2)
        u = np.empty_like(ubv)
        u[inner] = interior
        u.reshape(-1)[face_index] = -mu * kd[0]
        # the exponent is evaluated as one sum: Ubar and Uhat cancel to O(1)
        # in the screened bulk while each alone overflows exp at small eps.
        # g e^U >= 0, so its sum is finite exactly when every node is
        with np.errstate(over="ignore", invalid="ignore"):
            src = ubv + u
            np.exp(src, out=src)
            src *= g.values
            total = float(src.sum())
            f = _lap_interior(u, h)
            f *= eps2
            f -= src[inner]
            res = float(np.abs(f).max())
            gap = total * vol - mu
            hres = c * total - _moments(src, ax)[1:]
        hinf = float(np.abs(hres).max())
        merit = max(res, abs(gap), vol * hinf) if math.isfinite(total) else math.inf
        return SimpleNamespace(
            u=u, mu=mu, c=c, src=src, total=total, f=f, res=res, gap=gap, h=hres, hinf=hinf,
            merit=merit, kd=kd,
        )

    def _operator(state):
        """The CG's d = w - mean(w) and M^-1, M = -eps^2 Lap_h + mean(w), at ``state``.

        w = g e^U on the interior, read here as a strided view of the source.
        """
        w = state.src[inner]
        shift = float(w.mean())
        # a source beyond float32 casts to inf, and _pcg raises on what follows
        with np.errstate(over="ignore"):
            minv = _shifted_lap_inverse(w.shape[0], h, eps2, shift, np.float32)
            return (w - shift).astype(np.float32), minv

    def _solve(d, minv, rhs, rtol, what, step):
        nonlocal cg_total
        try:
            x, it = _pcg(d, minv, rhs, rtol)
        except FieldSolveError as exc:
            raise FieldSolveError(
                f"{exc} [electron Newton step {step} at eps {epsilon:g}, {what}, "
                f"{cg_total + exc.iterations} CG iterations in this solve]",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        cg_total += it
        return x

    def _border(state, d, minv, out, step, when=""):
        """The border columns A^-1 [dF/dmu, dF/dc / mu] at ``state``, into ``out`` (new if None)."""
        if out is None:
            out = np.empty((4,) + d.shape, dtype=np.float32)
        for k, name in enumerate(_BORDER_UNKNOWNS):
            rhs = eps2 * _fold_boundary(np.zeros(d.shape), _on_faces(grid, state.kd[k]), h)
            rtol = CENTROID_COLUMN_RTOL if k else NEWTON_CG_RTOL
            out[k] = _solve(d, minv, rhs, rtol, f"border column {name}{when}", step)
        return out

    def _newton_step(state):
        """The Newton step at ``state``: (interior delta, (dmu, dc)).

        Its operator, w and CG work arrays are freed on return, before the
        line search builds its trials, so a step's peak memory is that of
        its CG solves or of one trial.
        """
        nonlocal border_columns
        # Newton system [[-A, B], [C^T, D]] [du, s] = -[F, (G, H)] for the
        # interior du and s = (dmu, dc), with A = -eps^2 Lap_h + diag(w),
        # B = [dF/dmu, dF/dc] the boundary row's derivatives folded onto the
        # interior, C^T the interior derivatives of (G, H) and D their
        # derivatives in (mu, c). Eliminating s leaves du = z + Z s with
        # z = A^-1 F and Z = A^-1 B, each solved by CG preconditioned by the
        # exact inverse of A - diag(w - mean(w)). dF/dc is mu times a face
        # term, so Z keeps its c columns per unit mass; Z only steers the four
        # scalars and is solved to 1e-3 or 1e-2, so float32 holds it
        d, minv = _operator(state)
        z = _solve(d, minv, state.f, NEWTON_CG_RTOL, "residual solve", accepted + 1)
        if border_columns is None:
            border_columns = _border(state, d, minv, None, accepted + 1)
        # the Schur products read w from one contiguous copy, made after the
        # CG solves so that it is not alive beside their work arrays (a mean
        # of it would sum in another order than the strided one in _operator)
        w = state.src[inner].copy()

        # a source change with sum s0 and first moments s1 moves G by vol s0
        # and H by c s0 - s1, so C^T v is that map of the moments of w v
        lift = np.zeros((4, 4))
        lift[0, 0] = vol
        lift[1:, 0] = state.c
        lift[1:, 1:] = -np.eye(3)
        ax_in = ax[1:-1]
        per_unit = np.array([1.0, state.mu, state.mu, state.mu])
        # Schur complement D + C^T Z: C^T Z from the moments of w Z_k; in D
        # the face sources move with du_b/ds = -(K, mu dK/dc), and dG/dmu and
        # dH/dc hold the explicit terms -1 and S I
        moments = np.column_stack([_moments(w * col, ax_in) for col in border_columns])
        moments -= face_rows @ (state.src.reshape(-1)[face_index] * state.kd).T
        schur = (lift @ moments) * per_unit
        schur[0, 0] -= 1.0
        schur[1:, 1:] += state.total * np.eye(3)
        rhs = np.concatenate(([state.gap], state.h)) + lift @ _moments(w * z, ax_in)
        step = np.linalg.solve(schur, -rhs)
        delta = z
        coefs = (step * per_unit).astype(np.float32)
        delta += (coefs @ border_columns.reshape(4, -1)).reshape(z.shape)
        return delta, step

    with np.errstate(over="ignore", invalid="ignore"):
        src = g.values * np.exp(ubv + uh)
        # the electron mass uses the same all-nodes sum as the ion mass so the
        # two monopole closures cancel exactly at neutrality
        state = _state(uh[inner], float(src.sum()) * vol, _centroid(src, grid))
    # a trial is accepted only at a finite merit, so only the start can overflow
    if not math.isfinite(state.total):
        raise FieldSolveError(
            "electron density overflowed during Newton iteration; "
            "retry from a warm start near the solution"
        )

    while True:
        mu, c, res = state.mu, state.c, state.res
        history.append(res)
        if (
            res <= CONTRACT_RTOL * max(1.0, float(state.src.max())) / CERTIFICATE_MARGIN
            and vol * abs(float(state.f.sum())) <= GAUSS_GATE / CERTIFICATE_MARGIN
            and abs(state.gap) <= MASS_RTOL * max(1.0, state.total * vol)
            and state.hinf <= MASS_RTOL * state.total * grid.half_width
        ):
            break
        imbalance = f"mass imbalance {state.gap:.3e}, centroid residual {state.hinf:.3e}"
        if accepted >= MAX_NEWTON:
            raise FieldSolveError(
                f"electron Newton did not converge in {MAX_NEWTON} iterations "
                f"(residual {res:.3e}, {imbalance}); "
                "retry from a warm start near the solution",
                residual=res,
            )

        delta, step = _newton_step(state)

        alpha = 1.0
        for _ in range(31):
            trial = _state(state.u[inner] + delta, mu + alpha * step[0], c + alpha * step[1:])
            if trial.merit < state.merit:
                state = trial
                accepted += 1
                break
            alpha *= 0.5
            delta *= 0.5
        else:
            raise FieldSolveError(
                f"electron Newton line search stagnated at residual {res:.3e} "
                f"({imbalance}); retry from a warm start near the solution",
                residual=res,
            )

    worst = float(state.u.max())
    if worst > UHAT_POSITIVE_TOL:
        raise FieldSolveError(
            f"electron potential came out positive (max {worst:.3e}); solver invariant broken",
            residual=res,
        )
    # the columns belong to the state they were solved at: a solve given none
    # re-solves its own at the converged state, and a warm solve that needed
    # more Newton steps than the first warm solve on its columns re-solves
    # them into a new array, leaving the caller's untouched
    if not carried or (border_newton is not None and accepted > border_newton):
        border_columns = _border(
            state, *_operator(state), None if carried else border_columns, accepted,
            " at the converged state",
        )
        border_newton = None
    elif border_newton is None and accepted:
        border_newton = accepted
    return UhatResult(
        field=ScalarField(grid, state.u),
        iterations=accepted,
        residual=res,
        history=history,
        cg_iterations=cg_total,
        border_columns=border_columns,
        border_newton=border_newton,
        source=state.src,
    )


# ---------------------------------------------------------------------------
# combined solve and audits
# ---------------------------------------------------------------------------


def gauss_imbalance(u, rho, source, epsilon):
    """Defect of the discrete Gauss identity on the interior.

    Summing eps^2 Lap_h U over interior nodes telescopes to a boundary flux;
    the identity balances it against the interior integral of g e^U - rho,
    with ``source`` the full-grid array g e^U. The return value equals the
    interior sum of the nonlinear residual times the cell volume, so it
    audits solver convergence structurally.
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
    net = (source[inner, inner, inner] - rho.values[inner, inner, inner]).sum()
    return float(flux - net * grid.cell_volume)


def solve_field(rho, g, epsilon, warm=None):
    """Full potential/field solve for a deposited ion density.

    ``warm``, an earlier FieldSolution on the same grid, starts the electron
    solve from its Uhat and its border columns, which the solve refreshes
    when it needs more Newton steps than the first warm solve on them.
    """
    if rho.grid != g.grid:
        raise ValueError("ion density and background live on different grids")
    if float(rho.values.min()) < 0.0:
        raise ValueError("ion density has negative values")
    mass = float(rho.values.sum()) * rho.grid.cell_volume
    if mass > 1.0 + 1e-9:
        raise ValueError(f"deposited ion mass {mass!r} exceeds 1 beyond tolerance")
    ubar = solve_ubar(rho, epsilon)
    if warm is None:
        hat = solve_uhat(ubar, g, epsilon)
    else:
        hat = solve_uhat(
            ubar, g, epsilon, initial=warm.uhat.values, border_columns=warm.border_columns,
            border_newton=warm.border_newton,
        )
    u = ScalarField(rho.grid, ubar.values + hat.field.values)
    # the solver's g e^U is exp of the same Ubar + Uhat sum as u
    gauss = gauss_imbalance(u, rho, hat.source, epsilon)
    if abs(gauss) > GAUSS_GATE * max(1.0, mass):
        raise FieldSolveError(
            f"Gauss-identity defect {gauss!r} exceeds gate for mass {mass!r}",
            residual=hat.residual,
        )
    e = gradient(u)
    return FieldSolution(
        u=u,
        ubar=ubar,
        uhat=hat.field,
        # negated in place, so no second (N, N, N, 3) array; negation is exact
        e=VectorField(rho.grid, np.negative(e, out=e)),
        epsilon=epsilon,
        newton_iterations=hat.iterations,
        residual_inf=hat.residual,
        gauss_imbalance=gauss,
        newton_history=hat.history,
        cg_iterations=hat.cg_iterations,
        border_columns=hat.border_columns,
        border_newton=hat.border_newton,
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

