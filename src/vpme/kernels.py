"""Particle-grid hot loops: cloud-in-cell deposit/gather and the leapfrog push.

One numpy implementation, serial with a fixed particle order, so same-seed
runs are bitwise reproducible.

Particles outside the node box [x0, x0 + (N-1)h]^3 deposit nothing and see a
zero field; their skipped weight is returned so callers can track escaped
mass. Deposit and gather share the same trilinear weights (adjoint pair).

The CIC rule: a particle is in the box when -EDGE_TOL <= s <= N-1+EDGE_TOL on
each axis, s = (x - x0)/h; s is clamped to [0, N-1], the base index to N-2,
and the eight corners come in the order dz fastest, then dy, then dx, with
weight (wx*wy)*wz (a deposit adds w*weight). A NaN position is out of the box.

The kernels address the C-ordered node array through one flat index: `_cic`
gives each in-box particle its base node (ix*N + iy)*N + iz and yields the
eight corners as (flat offset, weight). Deposits scatter with np.add.at on
the flattened array (one strided component view at a time for vectors), and
the gather takes from one contiguous plane per component. Every node and
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

# recorded in run_meta.json and in benchmark results
BACKEND = "numpy"


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


def deposit(pos, weights, x0, h, nodes, out):
    inbox, base, corners = _cic(pos, x0, h, nodes)
    w = weights[inbox]
    flat = _flat_view(out)
    for off, cw in corners:
        np.add.at(flat, base + off, w * cw)
    return float(w.sum())


def deposit_vec(pos, weights, vec, x0, h, nodes, out):
    inbox, base, corners = _cic(pos, x0, h, nodes)
    w = weights[inbox]
    cols = vec.compress(inbox, axis=0).T.copy()
    rows = _flat_view(out).reshape(-1, vec.shape[1])
    for off, cw in corners:
        at, wcw = base + off, w * cw
        for c, col in enumerate(cols):
            np.add.at(rows[:, c], at, wcw * col)
    return float(w.sum())


def gather_vec(grid, pos, x0, h, out):
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


def push_kdk(pos, vel, fint, egrid, x0, h, dt, xmid, vmid):
    e1 = np.empty_like(vel)
    gather_vec(egrid, pos, x0, h, e1)
    vel += 0.5 * dt * e1
    vmid[:] = vel
    xmid[:] = pos + 0.5 * dt * vel
    pos += dt * vel
    e2 = np.empty_like(vel)
    gather_vec(egrid, pos, x0, h, e2)
    vel += 0.5 * dt * e2
    fint += 0.5 * dt * (
        np.sqrt((e1 * e1).sum(axis=1)) + np.sqrt((e2 * e2).sum(axis=1))
    )


# only so that perfbench/spans.py, which wraps this name, still finds it
np_gather_vec = gather_vec
