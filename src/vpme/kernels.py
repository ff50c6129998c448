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
(ix*N + iy)*N + iz and its (n, 3) fractions. `corner` gives one corner's
(flat offset, weight) pair, `corners` all eight in order for the gather.
Deposits scatter with np.add.at on the flattened array (one strided
component view at a time for vectors), and the gather takes from one
contiguous plane per component. Every node and particle component thus
receives the same products in the same order as a per-corner (ix, iy, iz)
fancy index would give it, so the results are bitwise those of that
formulation; tests/test_kernels.py keeps it as the oracle.

The block rule: every kernel walks the particles in blocks of BLOCK
consecutive particles, in particle order (`block_slices`), and `blocks`
cuts a setup into per-block views. Per-particle work is blocked freely,
because no particle's result depends on another's: the setup, the gathers,
the kicks, the drift, the half-step positions and velocities and the field
integral. The scatters are the exception. A node sums the contributions of
many particles, so their order sets its rounding; the deposits therefore
loop the corners outside the blocks, and for each corner np.add.at runs
over the blocks in particle order. Each node then receives the same
additions in the same order as one whole-array np.add.at per corner, and
so the same bits; blocks outside corners would interleave the corners and
move the rounding. The returned in-box weight is one whole-array sum,
because a pairwise sum depends on the block layout. No output depends on
BLOCK (tests/test_config.py runs a scenario at two block sizes).

Working memory per particle: the setup, about 33 bytes, lives from one push
to the next; the push adds |E| of the opening kick (8 bytes) until the
closing kick, and the deposits the in-box weights (8 bytes). Everything else
is per block: about 94 bytes per block particle in the push, so 1.5 MB at
BLOCK = 16384, whatever the particle count. BLOCK was chosen from 16384,
32768 and 65536 on the three benchmark workloads (CHANGES.md): the kernel
times did not move beyond noise, and dense-ions' peak RSS rose with the
block, 145.7, 146.1 and 147.5 MB.

Who builds a setup, who consumes it and when it is freed: `push_kdk` takes
the setup of the current positions in a one-slot list, empties the list for
the opening kick, so the setup is freed before the drifted positions get
theirs, and leaves that new setup in the list after the closing kick
consumed it. The runner passes it on to the density deposit and holds it in
the list through the solve and the checkpoint, until the next push empties
it.

EDGE_TOL (in index units) absorbs the rounding of (x - x0)/h for particles
sitting exactly on the box faces; without it a node-lattice particle at +L
can land at N-1 plus one ulp and be miscounted as escaped.
"""

import numpy as np

EDGE_TOL = 1e-9
# particles per block of every kernel loop (the block rule above)
BLOCK = 16384

# recorded in run_meta.json and in benchmark results
BACKEND = "numpy"


def block_slices(n):
    """Slices of ``BLOCK`` consecutive particles covering ``range(n)`` in order."""
    return [slice(a, a + BLOCK) for a in range(0, n, BLOCK)]


def cic_setup(pos, x0, h, nodes):
    """CIC setup of ``pos``: (in-box mask, flat base node index, (n, 3) fractions).

    Two passes over the blocks: the first builds the mask, so that the base
    and fraction arrays can be allocated at their final length; the second
    scales the in-box rows of each block, clips them and reduces them to the
    fractions in place.
    """
    inbox = np.empty(pos.shape[0], dtype=bool)
    for sl in block_slices(pos.shape[0]):
        s = pos[sl] - x0
        s /= h
        ok = (s >= -EDGE_TOL) & (s <= nodes - 1.0 + EDGE_TOL)
        inbox[sl] = ok[:, 0] & ok[:, 1] & ok[:, 2]
    m = np.count_nonzero(inbox)
    cic = inbox, np.empty(m, dtype=np.int64), np.empty((m, 3))
    for sl, _, (inb, base, frac) in blocks(cic):
        s = pos[sl].compress(inb, axis=0)
        s -= x0
        s /= h
        np.clip(s, 0.0, nodes - 1.0, out=s)
        idx = s.astype(np.int64)
        np.minimum(idx, nodes - 2, out=idx)
        np.subtract(s, idx, out=frac)
        base[:] = (idx[:, 0] * nodes + idx[:, 1]) * nodes + idx[:, 2]
    return cic


def blocks(cic):
    """The setup ``cic`` cut at ``block_slices``: (particle slice, in-box row slice, block setup).

    The block setup's arrays are views of the setup's, so they keep it alive.
    """
    inbox, base, frac = cic
    k = 0
    for sl in block_slices(inbox.shape[0]):
        inb = inbox[sl]
        rows = slice(k, k + np.count_nonzero(inb))
        k = rows.stop
        yield sl, rows, (inb, base[rows], frac[rows])


def corner(frac, nodes, k):
    """Flat offset and weight of corner ``k`` = 4 dx + 2 dy + dz of a setup's fractions.

    Corner (dx, dy, dz) sits at base + (dx*N + dy)*N + dz with weight
    (wx*wy)*wz, wx being 1 - fx or fx. The weight array is new, so a caller
    may scale it in place.
    """
    dx, dy, dz = k >> 2, (k >> 1) & 1, k & 1
    wx, wy, wz = (frac[:, a] if d else 1.0 - frac[:, a] for a, d in enumerate((dx, dy, dz)))
    return (dx * nodes + dy) * nodes + dz, (wx * wy) * wz


def corners(frac, nodes):
    """``corner(frac, nodes, k)`` for k = 0..7, one at a time, sharing each wx*wy.

    The gather takes all eight corners of a block at once, and sharing wx*wy
    makes it 12% faster than eight ``corner`` calls (62 against 71 ms CPU at
    4e5 ions on 24^3). Yielding them one at a time keeps one corner's
    weights alive, not eight.
    """
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    for dx, wx in ((0, gx), (1, fx)):
        for dy, wy in ((0, gy), (1, fy)):
            wxy = wx * wy
            for dz, wz in ((0, gz), (1, fz)):
                yield (dx * nodes + dy) * nodes + dz, wxy * wz


def _scatter_order(cic, nodes):
    """(particle slice, block mask, in-box rows, flat nodes, weights), corners outside blocks."""
    for k in range(8):
        for sl, rows, (inb, base, frac) in blocks(cic):
            off, cw = corner(frac, nodes, k)
            yield sl, inb, rows, base + off, cw


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
    w = weights[cic[0]]
    flat = _flat_view(out)
    for _, _, rows, at, cw in _scatter_order(cic, out.shape[0]):
        cw *= w[rows]
        np.add.at(flat, at, cw)
    return float(w.sum())


def _masked_rows(a, mask):
    """The rows of the 2-D ``a`` where ``mask`` is set, each copied as one item.

    Several times faster than ``a[mask]``, which copies element by element.
    """
    a = np.ascontiguousarray(a)
    row = np.dtype((np.void, a.dtype.itemsize * a.shape[1]))
    return a.view(row)[:, 0][mask].view(a.dtype).reshape(-1, a.shape[1])


def deposit_vec(cic, weights, vec, out):
    """Scatter ``weights * vec`` at the setup ``cic`` into ``out`` (..., ncomp)."""
    w = weights[cic[0]]
    flat = _flat_view(out).reshape(-1, vec.shape[1])
    for sl, inb, rows, at, cw in _scatter_order(cic, out.shape[0]):
        cw *= w[rows]
        for c, col in enumerate(_masked_rows(vec[sl], inb).T):
            np.add.at(flat[:, c], at, cw * col)
    return float(w.sum())


def gather_vec(grid, cic, out):
    """Trilinear ``grid`` (N, N, N, ncomp) values at the setup ``cic`` into ``out``; zero outside."""
    planes = [np.ascontiguousarray(grid[..., c]).reshape(-1) for c in range(grid.shape[3])]
    for sl, _, (inb, base, frac) in blocks(cic):
        acc = np.zeros((len(planes), base.shape[0]))
        for off, cw in corners(frac, grid.shape[0]):
            at = base + off
            for a, plane in zip(acc, planes):
                a += cw * plane.take(at)
        block = out[sl]
        block[:] = 0.0
        block[inb] = acc.T
    return out


def _gathered(grid, cic, buf):
    """(particle slice, gathered E) per block of the setup ``cic``, into a slice of ``buf``.

    Calls ``gather_vec`` by its module-global name, so a wrapper installed
    there sees every block's gather.
    """
    for sl, _, blk in blocks(cic):
        yield sl, gather_vec(grid, blk, buf[: blk[0].shape[0]])


def push_kdk(pos, vel, fint, egrid, x0, h, dt, xmid, vmid, cic=None):
    """One kick-drift-kick step in place, block by block; returns the one-slot list ``cic``.

    On entry ``cic`` holds the setup of ``pos`` (the list is allocated, and
    the setup built, when it is None or empty). The opening kick and the
    drift take the setup out of the list, so it is freed before the drifted
    positions get theirs; on return the list holds the setup of the drifted
    ``pos``. Between the two kicks only |E| of the opening kick is kept per
    particle.
    """
    nodes = egrid.shape[0]
    if cic is None:
        cic = []
    # component-major copy: each block's gather takes from its planes uncopied
    grid = np.moveaxis(np.ascontiguousarray(np.moveaxis(egrid, 3, 0)), 0, 3)
    e = np.empty((min(pos.shape[0], BLOCK), 3))
    n1 = np.empty(pos.shape[0])
    for sl, eb in _gathered(grid, cic.pop() if cic else cic_setup(pos, x0, h, nodes), e):
        v, p = vel[sl], pos[sl]
        v += 0.5 * dt * eb
        vmid[sl] = v
        xmid[sl] = p + 0.5 * dt * v
        p += dt * v
        n1[sl] = np.sqrt(row_norm2(eb))
    cic.append(cic_setup(pos, x0, h, nodes))
    for sl, eb in _gathered(grid, cic[0], e):
        v, f = vel[sl], fint[sl]
        v += 0.5 * dt * eb
        f += 0.5 * dt * (n1[sl] + np.sqrt(row_norm2(eb)))
    return cic


# only so that perfbench/spans.py, which wraps this name, still finds it
np_gather_vec = gather_vec
