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

The kernels address the C-ordered node array through one flat index. One
CIC setup, `cic_setup`, serves every kernel that reads or writes at the same
positions: the boolean in-box mask, each in-box particle's base node
(ix*N + iy)*N + iz and its (n, 3) fractions. `corners` turns the
fractions into the eight (flat offset, weight) pairs. Deposits scatter with
np.add.at on the flattened array (one strided component view at a time for
vectors), and the gather takes from one contiguous plane per component.
Every node and particle component thus receives the same products in the
same order as a per-corner (ix, iy, iz) fancy index would give it, so the
results are bitwise those of that formulation; tests/test_kernels.py keeps
it as the oracle.

Who builds a setup, who consumes it and when it is freed: `push_kdk` takes
the setup of the current positions in a one-slot list, empties the list for
the opening gather, so the setup is freed before the drifted positions get
theirs, and leaves that new setup in the list after the closing gather
consumed it. The runner passes it on to the density deposit and holds it in
the list through the solve and the checkpoint, until the next push empties
it. A setup is about 33 bytes per particle.

EDGE_TOL (in index units) absorbs the rounding of (x - x0)/h for particles
sitting exactly on the box faces; without it a node-lattice particle at +L
can land at N-1 plus one ulp and be miscounted as escaped.
"""

import numpy as np

EDGE_TOL = 1e-9

# recorded in run_meta.json and in benchmark results
BACKEND = "numpy"


def cic_setup(pos, x0, h, nodes):
    """CIC setup of ``pos``: (in-box mask, flat base node index, (n, 3) fractions).

    One buffer is scaled, compressed to the in-box rows, clipped and reduced
    to the fractions in place.
    """
    s = pos - x0
    s /= h
    ok = (s >= -EDGE_TOL) & (s <= nodes - 1.0 + EDGE_TOL)
    inbox = ok[:, 0] & ok[:, 1] & ok[:, 2]
    s = s.compress(inbox, axis=0)
    np.clip(s, 0.0, nodes - 1.0, out=s)
    idx = s.astype(np.int64)
    np.minimum(idx, nodes - 2, out=idx)
    s -= idx
    base = (idx[:, 0] * nodes + idx[:, 1]) * nodes + idx[:, 2]
    return inbox, base, s


def corners(frac, nodes):
    """The eight (flat offset, weight) corners of a setup's fractions, one at a time.

    Corner (dx, dy, dz) sits at base + (dx*N + dy)*N + dz with weight
    (wx*wy)*wz, wx being 1 - fx or fx; dz runs fastest, then dy, then dx.
    Yielding them one at a time keeps one corner's weights alive, not eight;
    each weight array is new, so a caller may scale it in place.
    """
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    for dx, wx in ((0, gx), (1, fx)):
        for dy, wy in ((0, gy), (1, fy)):
            wxy = wx * wy
            for dz, wz in ((0, gz), (1, fz)):
                yield (dx * nodes + dy) * nodes + dz, wxy * wz


def row_norm2(a):
    """Squared Euclidean norm of each row of an (n, 3) array, summed x, y, then z."""
    return (a[:, 0] * a[:, 0] + a[:, 1] * a[:, 1]) + a[:, 2] * a[:, 2]


def _flat_view(out):
    # reshape copies a non-contiguous array, and the deposit would be lost
    if not out.flags.c_contiguous:
        raise ValueError("deposit target must be C-contiguous")
    return out.reshape(-1)


def deposit(cic, weights, out):
    """Scatter ``weights`` at the setup ``cic`` into ``out``; returns the in-box weight."""
    inbox, base, frac = cic
    w = weights[inbox]
    flat = _flat_view(out)
    for off, cw in corners(frac, out.shape[0]):
        cw *= w
        np.add.at(flat, base + off, cw)
    return float(w.sum())


def deposit_vec(cic, weights, vec, out):
    """Scatter ``weights * vec`` at the setup ``cic`` into ``out`` (..., ncomp)."""
    inbox, base, frac = cic
    w = weights[inbox]
    cols = vec[inbox].T.copy()
    rows = _flat_view(out).reshape(-1, vec.shape[1])
    at = np.empty_like(base)
    for off, cw in corners(frac, out.shape[0]):
        np.add(base, off, out=at)
        cw *= w
        for c, col in enumerate(cols):
            np.add.at(rows[:, c], at, cw * col)
    return float(w.sum())


def gather_vec(grid, cic, out):
    """Trilinear ``grid`` (N, N, N, ncomp) values at the setup ``cic`` into ``out``; zero outside."""
    inbox, base, frac = cic
    planes = [np.ascontiguousarray(grid[..., c]).reshape(-1) for c in range(grid.shape[3])]
    acc = np.zeros((len(planes), base.shape[0]))
    for off, cw in corners(frac, grid.shape[0]):
        at = base + off
        for a, plane in zip(acc, planes):
            a += cw * plane.take(at)
    out[:] = 0.0
    out[inbox] = acc.T
    return out


def push_kdk(pos, vel, fint, egrid, x0, h, dt, xmid, vmid, cic=None):
    """One kick-drift-kick step in place; returns the one-slot list ``cic``.

    On entry ``cic`` holds the setup of ``pos`` (the list is allocated, and
    the setup built, when it is None or empty). The opening gather takes the
    setup out of the list, so it is freed before the drifted positions get
    theirs; on return the list holds the setup of the drifted ``pos``.
    """
    nodes = egrid.shape[0]
    if cic is None:
        cic = []
    e1 = np.empty_like(vel)
    gather_vec(egrid, cic.pop() if cic else cic_setup(pos, x0, h, nodes), e1)
    vel += 0.5 * dt * e1
    vmid[:] = vel
    xmid[:] = pos + 0.5 * dt * vel
    pos += dt * vel
    cic.append(cic_setup(pos, x0, h, nodes))
    e2 = np.empty_like(vel)
    gather_vec(egrid, cic[0], e2)
    vel += 0.5 * dt * e2
    fint += 0.5 * dt * (np.sqrt(row_norm2(e1)) + np.sqrt(row_norm2(e2)))
    return cic


# only so that perfbench/spans.py, which wraps this name, still finds it
np_gather_vec = gather_vec
