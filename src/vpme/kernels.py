"""Particle-grid hot loops: cloud-in-cell deposit/gather and the leapfrog push.

Two interchangeable backends: the numba one whenever numba is importable,
else the numpy one, which is the reference. Both are serial with a fixed
particle order, so same-seed runs are bitwise reproducible on either backend.
Without numba the nb_* kernels stay plain Python, which the tests run as the
second backend.

Particles outside the node box [x0, x0 + (N-1)h]^3 deposit nothing and see a
zero field; their skipped weight is returned so callers can track escaped
mass. Deposit and gather share the same trilinear weights (adjoint pair).

Both backends use one CIC definition. A particle is in the box when
-EDGE_TOL <= s <= N-1+EDGE_TOL on each axis, s = (x - x0)/h; s is clamped to
[0, N-1], the base index to N-2, and the eight corners come in the order dz
fastest, then dy, then dx, with weight (wx*wy)*wz (a deposit adds w*weight).
`_cic` applies it to all particles at once, `_nb_cic` to one. A gather and a
push thus give bitwise the same result on both backends (as plain Python;
compiled code may fuse multiply-adds). Deposits sum each node corner-major on
numpy and particle-major on numba, so they agree to rounding.

The numpy kernels address the C-ordered node array through one flat index:
`_cic` gives each in-box particle its base node (ix*N + iy)*N + iz and yields
the eight corners as (flat offset, weight). Deposits scatter with np.add.at
on the flattened array (one strided component view at a time for vectors),
and the gather takes from one contiguous plane per component. Every node and
particle component thus receives the same products in the same order as a
per-corner (ix, iy, iz) fancy index would give it, so the results are
bitwise those of that formulation; tests/test_kernels.py keeps it as the
oracle.

EDGE_TOL (in index units) absorbs the rounding of (x - x0)/h for particles
sitting exactly on the box faces; without it a node-lattice particle at +L
can land at N-1 plus one ulp and be miscounted as escaped.
"""

import numpy as np

EDGE_TOL = 1e-9

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        return wrap if not (args and callable(args[0])) else args[0]


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------


def _cic(pos, x0, h, nodes):
    """In-box mask, flat base node index and the eight (offset, weight) corners.

    Corner (dx, dy, dz) sits at base + (dx*N + dy)*N + dz with weight
    (wx*wy)*wz, wx being 1 - fx or fx. The corners are yielded one at a time
    so that one corner's weights are alive at once, not eight.
    """
    s = (pos - x0) / h
    ok = (s >= -EDGE_TOL) & (s <= nodes - 1.0 + EDGE_TOL)
    inbox = ok[:, 0] & ok[:, 1] & ok[:, 2]
    s = np.clip(s.compress(inbox, axis=0), 0.0, nodes - 1.0)
    idx = np.minimum(s.astype(np.int64), nodes - 2)
    frac = s - idx
    base = (idx[:, 0] * nodes + idx[:, 1]) * nodes + idx[:, 2]
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz

    def corners():
        for dx, wx in ((0, gx), (1, fx)):
            for dy, wy in ((0, gy), (1, fy)):
                wxy = wx * wy
                for dz, wz in ((0, gz), (1, fz)):
                    yield (dx * nodes + dy) * nodes + dz, wxy * wz

    return inbox, base, corners()


def _flat_view(out):
    # reshape copies a non-contiguous array, and the deposit would be lost
    if not out.flags.c_contiguous:
        raise ValueError("deposit target must be C-contiguous")
    return out.reshape(-1)


def np_deposit(pos, weights, x0, h, nodes, out):
    inbox, base, corners = _cic(pos, x0, h, nodes)
    w = weights[inbox]
    flat = _flat_view(out)
    for off, cw in corners:
        np.add.at(flat, base + off, w * cw)
    return float(w.sum())


def np_deposit_vec(pos, weights, vec, x0, h, nodes, out):
    inbox, base, corners = _cic(pos, x0, h, nodes)
    w = weights[inbox]
    cols = vec.compress(inbox, axis=0).T.copy()
    rows = _flat_view(out).reshape(-1, vec.shape[1])
    for off, cw in corners:
        at, wcw = base + off, w * cw
        for c, col in enumerate(cols):
            np.add.at(rows[:, c], at, wcw * col)
    return float(w.sum())


def np_gather_vec(grid, pos, x0, h, out):
    nodes = grid.shape[0]
    inbox, base, corners = _cic(pos, x0, h, nodes)
    planes = [np.ascontiguousarray(grid[..., c]).reshape(-1) for c in range(grid.shape[3])]
    acc = np.zeros((len(planes), base.shape[0]))
    for off, cw in corners:
        at = base + off
        for a, plane in zip(acc, planes):
            a += cw * plane.take(at)
    out[:] = 0.0
    out[inbox] = acc.T
    return out


def np_push_kdk(pos, vel, fint, egrid, x0, h, dt, xmid, vmid):
    e1 = np.empty_like(vel)
    np_gather_vec(egrid, pos, x0, h, e1)
    vel += 0.5 * dt * e1
    vmid[:] = vel
    xmid[:] = pos + 0.5 * dt * vel
    pos += dt * vel
    e2 = np.empty_like(vel)
    np_gather_vec(egrid, pos, x0, h, e2)
    vel += 0.5 * dt * e2
    fint += 0.5 * dt * (
        np.sqrt((e1 * e1).sum(axis=1)) + np.sqrt((e2 * e2).sum(axis=1))
    )


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------


@njit(cache=True, inline="always")
def _nb_cic(x, y, z, x0, h, nodes):
    """One particle's base node (ix, iy, iz) and fractions, by `_cic`'s rule.

    ix is -1 for a particle outside the node box (a NaN coordinate included).
    """
    top = nodes - 1.0
    lo, hi = -EDGE_TOL, top + EDGE_TOL
    sx = (x - x0) / h
    sy = (y - x0) / h
    sz = (z - x0) / h
    if not (lo <= sx <= hi and lo <= sy <= hi and lo <= sz <= hi):
        return -1, 0, 0, 0.0, 0.0, 0.0
    sx = min(max(sx, 0.0), top)
    sy = min(max(sy, 0.0), top)
    sz = min(max(sz, 0.0), top)
    ix = min(int(sx), nodes - 2)
    iy = min(int(sy), nodes - 2)
    iz = min(int(sz), nodes - 2)
    return ix, iy, iz, sx - ix, sy - iy, sz - iz


@njit(cache=True)
def nb_deposit(pos, weights, x0, h, nodes, out):
    inbox = 0.0
    for p in range(pos.shape[0]):
        ix, iy, iz, fx, fy, fz = _nb_cic(pos[p, 0], pos[p, 1], pos[p, 2], x0, h, nodes)
        if ix < 0:
            continue
        w = weights[p]
        inbox += w
        for dx in range(2):
            wx = fx if dx else 1.0 - fx
            for dy in range(2):
                wxy = wx * (fy if dy else 1.0 - fy)
                for dz in range(2):
                    cw = wxy * (fz if dz else 1.0 - fz)
                    out[ix + dx, iy + dy, iz + dz] += w * cw
    return inbox


@njit(cache=True)
def nb_deposit_vec(pos, weights, vec, x0, h, nodes, out):
    inbox = 0.0
    for p in range(pos.shape[0]):
        ix, iy, iz, fx, fy, fz = _nb_cic(pos[p, 0], pos[p, 1], pos[p, 2], x0, h, nodes)
        if ix < 0:
            continue
        w = weights[p]
        inbox += w
        for dx in range(2):
            wx = fx if dx else 1.0 - fx
            for dy in range(2):
                wxy = wx * (fy if dy else 1.0 - fy)
                for dz in range(2):
                    wcw = w * (wxy * (fz if dz else 1.0 - fz))
                    for c in range(vec.shape[1]):
                        out[ix + dx, iy + dy, iz + dz, c] += wcw * vec[p, c]
    return inbox


@njit(cache=True, inline="always")
def _nb_gather_one(grid, x, y, z, x0, h, nodes, out, p):
    ix, iy, iz, fx, fy, fz = _nb_cic(x, y, z, x0, h, nodes)
    for c in range(out.shape[1]):
        out[p, c] = 0.0
    if ix < 0:
        return
    for dx in range(2):
        wx = fx if dx else 1.0 - fx
        for dy in range(2):
            wxy = wx * (fy if dy else 1.0 - fy)
            for dz in range(2):
                cw = wxy * (fz if dz else 1.0 - fz)
                for c in range(out.shape[1]):
                    out[p, c] += cw * grid[ix + dx, iy + dy, iz + dz, c]


@njit(cache=True)
def nb_gather_vec(grid, pos, x0, h, out):
    nodes = grid.shape[0]
    for p in range(pos.shape[0]):
        _nb_gather_one(grid, pos[p, 0], pos[p, 1], pos[p, 2], x0, h, nodes, out, p)
    return out


@njit(cache=True)
def nb_push_kdk(pos, vel, fint, egrid, x0, h, dt, xmid, vmid):
    nodes = egrid.shape[0]
    e = np.empty((1, 3))
    for p in range(pos.shape[0]):
        _nb_gather_one(egrid, pos[p, 0], pos[p, 1], pos[p, 2], x0, h, nodes, e, 0)
        a1 = np.sqrt(e[0, 0] * e[0, 0] + e[0, 1] * e[0, 1] + e[0, 2] * e[0, 2])
        for c in range(3):
            vel[p, c] += 0.5 * dt * e[0, c]
            vmid[p, c] = vel[p, c]
            xmid[p, c] = pos[p, c] + 0.5 * dt * vel[p, c]
            pos[p, c] += dt * vel[p, c]
        _nb_gather_one(egrid, pos[p, 0], pos[p, 1], pos[p, 2], x0, h, nodes, e, 0)
        a2 = np.sqrt(e[0, 0] * e[0, 0] + e[0, 1] * e[0, 1] + e[0, 2] * e[0, 2])
        for c in range(3):
            vel[p, c] += 0.5 * dt * e[0, c]
        fint[p] += 0.5 * dt * (a1 + a2)


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    deposit = nb_deposit
    deposit_vec = nb_deposit_vec
    gather_vec = nb_gather_vec
    push_kdk = nb_push_kdk
    BACKEND = "numba"
else:
    deposit = np_deposit
    deposit_vec = np_deposit_vec
    gather_vec = np_gather_vec
    push_kdk = np_push_kdk
    BACKEND = "numpy"
