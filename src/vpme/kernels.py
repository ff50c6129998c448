"""Particle-grid hot loops: cloud-in-cell deposit/gather and the leapfrog push.

One numpy implementation, serial with a fixed particle order, so same-seed
runs are bitwise reproducible.

Particles outside the node box [x0, x0 + (N-1)h]^3 deposit nothing and see a
zero field; the density deposit returns the escaped weight, the sum of the
weights outside the box, so callers can track escaped mass. Deposit and
gather share the same trilinear weights (adjoint pair).

The CIC rule: a particle is in the box when -EDGE_TOL <= s <= N-1+EDGE_TOL on
each axis, s = (x - x0)/h; s is clamped to [0, N-1], the base index to N-2,
and the eight corners come in the order dz fastest, then dy, then dx, with
weight (wx*wy)*wz (a deposit adds w*weight). A NaN position is out of the box.

The kernels address the C-ordered node array through one flat index. One
CIC setup, `cic_setup`, serves every kernel that reads or writes at the same
positions. It holds one row per particle: the boolean in-box mask, the base
node (ix*N + iy)*N + iz and the (n, 3) fractions. An escaped particle keeps
its row, at cell 0 with zero fractions, and its mask entry acts as a weight,
not as an index: the deposits scatter zero for the rows the mask leaves
out, and the gather zeroes them. So the kernels know one index space, the
particles'. `corner` gives one corner's
(flat offset, weight) pair, `corners` all eight in order for the gather.
A corner's offset is applied as a view, not added to the base nodes: a
kernel indexes the flat array from the offset on (`flat[off:]`) with the
base nodes themselves, so no per-corner index array is built and numpy
still bounds-checks every index, against the shifted view. Deposits scatter
with np.add.at into that view (one component plane at a time for vectors),
and the gather takes from one contiguous plane per component. Every node
and particle component thus receives the same nonzero products in the same
order as a per-corner (ix, iy, iz) fancy index over the in-box particles
would give it, so the results are bitwise those of that formulation;
tests/test_kernels.py keeps it as the oracle. An escaped particle adds a
zero, which changes no bit, because a node starts at +0.0 and so never
holds -0.0.

The layout rule: every array of 3-vectors in vpme, per particle or per
node, is stored component-major, an (..., 3) view of a C-ordered (3, ...)
array, so that each component [..., c] is one contiguous plane. That holds
for the ions' positions and velocities, every `mesh.VectorField`, the
setup's fractions and the push's work arrays, and `component_major`
allocates or converts every one of them. The layout moves no bit: every
operation is elementwise or per component.

The block rule: every kernel walks the particles in blocks of BLOCK
consecutive particles, in particle order (`block_slices`), and `blocks`
cuts a setup into per-block views, one block setup per particle slice.
Per-particle work is blocked freely, because no particle's result depends
on another's: the setup, the gathers, the kicks, the drift, the half-step
setup and the field integral. The scatters are the
exception. A node sums the contributions of many particles, so their order
sets its rounding; the deposits therefore loop the corners outside the
blocks, and for each corner np.add.at runs over the blocks in particle
order. Each node then receives the same additions in the same order as one
whole-array np.add.at per corner, and so the same bits; blocks outside
corners would interleave the corners and move the rounding. Sums over the
particles, such as the checkpoint's kinetic energy and speed moments, are
blocked too: numpy sums a contiguous float array pairwise over a fixed tree,
and ``pairwise_sum`` walks that tree and hands each subtree of at most
max(BLOCK, 128) particles to a per-block function, so the blocked sum has
the bits of numpy's whole-array sum. The escaped weight that ``deposit``
returns is one numpy sum over the escaped rows' weights, which are few. No
output depends on BLOCK (tests/test_config.py runs two scenarios at two
block sizes).

Working memory per particle: the setup, about 33 bytes for every particle,
escaped ones included, lives the whole run, because the push refills each
block's rows in place. The one per-particle temporary is the density
deposit's escaped-row mask (1 byte), which selects the weights it sums. On
a checkpoint step the push's opening pass leaves in the setup that of the
half-step positions, and the ions' velocities are the half-step ones, so the
current deposit between the passes needs no per-particle midpoint outputs.
Everything else is per block: about 100 bytes per block particle in the
push, so 1.7 MB at BLOCK = 16384, whatever the particle count; each kick adds
its own half of the field integral, and the gather accumulates straight into
its output. BLOCK was chosen from 16384, 32768 and 65536 on the three
benchmark workloads (CHANGES.md): the kernel times did not move beyond noise,
and dense-ions' peak RSS rose with the block, 145.7, 146.1 and 147.5 MB.

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


def component_major(a, zeros=False):
    """An array of 3-vectors, (..., 3), stored component-major (the layout rule).

    ``a`` is either the leading shape (an int or a tuple) of a new array,
    unfilled or, with ``zeros``, zero, or an array (..., 3) to convert. A
    converted array is float; it is a view of ``a`` when ``a`` is such an
    array already, else a copy.
    """
    if isinstance(a, int):
        a = (a,)
    if isinstance(a, tuple):
        return np.moveaxis((np.zeros if zeros else np.empty)((3,) + a), 0, -1)
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0), dtype=float), 0, -1)


def empty_setup(n):
    """Unfilled setup arrays for ``n`` particles: (in-box mask, base, (n, 3) fractions)."""
    # the largest array first: dense-ions peak RSS read 131.6-131.9 MB this
    # way and 131.5-132.1 MB mask first (three runs each, CHANGES.md), so
    # the order is within noise there
    frac = component_major(n)
    base = np.empty(n, dtype=np.int64)
    inbox = np.empty(n, dtype=bool)
    return inbox, base, frac


def cic_setup(pos, x0, h, nodes):
    """CIC setup of ``pos``: (in-box mask, flat base node index, (n, 3) fractions).

    One row per particle, filled block by block by ``fill_setup``.
    """
    cic = empty_setup(len(pos))
    for sl, blk in blocks(cic):
        fill_setup(pos[sl], x0, h, nodes, blk)
    return cic


def fill_setup(pos, x0, h, nodes, cic):
    """Write the CIC setup of ``pos`` into the setup arrays ``cic``, row for row, in place.

    A particle outside the box, or at a NaN position, gets cell 0 with zero
    fractions; the kernels read its mask entry as a zero weight.
    """
    inbox, base, s = cic
    np.subtract(pos, x0, out=s)
    s /= h
    ok = (s >= -EDGE_TOL) & (s <= nodes - 1.0 + EDGE_TOL)
    inbox[:] = ok[:, 0] & ok[:, 1] & ok[:, 2]
    np.copyto(s, 0.0, where=~inbox[:, None])
    np.clip(s, 0.0, nodes - 1.0, out=s)
    idx = s.astype(np.int64)
    np.minimum(idx, nodes - 2, out=idx)
    s -= idx
    base[:] = (idx[:, 0] * nodes + idx[:, 1]) * nodes + idx[:, 2]


def blocks(cic):
    """The setup ``cic`` cut at ``block_slices``: (particle slice, block setup).

    The block setup's arrays are views of the setup's, so they keep it alive.
    """
    for sl in block_slices(cic[0].shape[0]):
        yield sl, tuple(a[sl] for a in cic)


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
    makes it faster than eight ``corner`` calls, with the same bits (medians
    of 38-55 against 48-62 ms CPU per gather at 4e5 ions on 24^3, faster in
    each of four rounds alternating the two in one process). Yielding them
    one at a time keeps one corner's weights alive, not eight.
    """
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    gx, gy, gz = 1.0 - fx, 1.0 - fy, 1.0 - fz
    for dx, wx in ((0, gx), (1, fx)):
        for dy, wy in ((0, gy), (1, fy)):
            wxy = wx * wy
            for dz, wz in ((0, gz), (1, fz)):
                yield (dx * nodes + dy) * nodes + dz, wxy * wz


def _scatter_order(cic, weights, nodes):
    """(particle slice, corner offset, base nodes, weighted corner weights) per block, corners outside blocks.

    A corner's nodes are ``base`` in the target's flat view shifted by the
    offset. An escaped particle's weighted corner weights are +0.0, which
    move no bit of the target: its zero fractions give corners 1-7 a zero
    weight, so only corner 0 is masked. The weights must be finite, as a
    zero times an infinite weight is NaN.
    """
    for k in range(8):
        for sl, (inb, base, frac) in blocks(cic):
            off, cw = corner(frac, nodes, k)
            cw *= weights[sl]
            if k == 0:
                np.copyto(cw, 0.0, where=~inb)
            yield sl, off, base, cw


def pairwise_sum(n, leaf):
    """numpy's pairwise sum of ``n`` items, with ``leaf(lo, hi)`` summing each subtree.

    numpy sums a contiguous float array pairwise: while more than 128 items
    remain, it splits them at n // 2 - (n // 2) % 8 and adds the two halves'
    sums. This walks the same tree down to subtrees of at most
    max(BLOCK, 128) items, so ``pairwise_sum(n, lambda lo, hi: a[lo:hi].sum())``
    is bitwise ``a.sum()``. A leaf may return an array of several sums.
    Leaves are never cut below numpy's 128: at a smaller BLOCK, 8 to 15 items
    would split into an empty half and themselves, without end.
    """

    def walk(lo, m):
        if m <= max(BLOCK, 128):
            return leaf(lo, lo + m)
        half = m // 2 - (m // 2) % 8
        return walk(lo, half) + walk(lo + half, m - half)

    return walk(0, n)


def row_norm2(a):
    """Squared Euclidean norm of each 3-vector of an (..., 3) array, summed x, y, then z.

    (x*x + y*y) + z*z is accumulated into the output with one scratch array
    for the squares, so it works in two arrays of the output's size.
    """
    out = a[..., 0] * a[..., 0]
    sq = np.multiply(a[..., 1], a[..., 1])
    out += sq
    np.multiply(a[..., 2], a[..., 2], out=sq)
    out += sq
    return out


def _flat_view(out):
    # reshape copies a non-contiguous array, and the deposit would be lost
    if not out.flags.c_contiguous:
        raise ValueError("deposit target must be C-contiguous")
    return out.reshape(-1)


def deposit(cic, weights, out):
    """Scatter ``weights`` at the setup ``cic`` into ``out``; returns the escaped weight.

    Escaped particles scatter zero; the returned weight is the sum of their
    weights.
    """
    flat = _flat_view(out)
    for _, off, base, cw in _scatter_order(cic, weights, out.shape[0]):
        np.add.at(flat[off:], base, cw)
    return float(weights[~cic[0]].sum())


def deposit_vec(cic, weights, vec, out):
    """Scatter ``weights * vec`` at the setup ``cic`` into ``out`` (..., ncomp), in place.

    Each component adds into its plane ``out[..., c]``, which must be
    C-contiguous, as in a component-major ``out``. ``vec`` must be finite
    on escaped rows too: their zero weight times an infinite or NaN
    component is NaN.
    """
    planes = [_flat_view(out[..., c]) for c in range(vec.shape[1])]
    for sl, off, base, cw in _scatter_order(cic, weights, out.shape[0]):
        for c, plane in enumerate(planes):
            np.add.at(plane[off:], base, cw * vec[sl, c])


def gather_vec(grid, cic, out):
    """Trilinear ``grid`` (N, N, N, ncomp) values at the setup ``cic`` into ``out``; zero outside.

    Each block's rows of ``out`` are zeroed, then accumulate the eight
    corners in place, one component at a time, from the component's plane
    of ``grid`` (a copy when ``grid`` is not component-major). Escaped rows
    gather node 0 and are then set to +0.0.
    """
    planes = [grid[..., c].reshape(-1) for c in range(grid.shape[3])]
    for sl, (inb, base, frac) in blocks(cic):
        block = out[sl]
        block[:] = 0.0
        for off, cw in corners(frac, grid.shape[0]):
            for a, plane in zip(block.T, planes):
                t = plane[off:].take(base)
                t *= cw
                a += t
        np.copyto(block, 0.0, where=~inb[:, None])
    return out


def push_kdk(pos, vel, fint, egrid, x0, h, dt, cic, midpoint=None):
    """One kick-drift-kick step in place, in two passes over the blocks.

    ``cic`` is the setup of ``pos``. The opening pass gathers E at each
    block's rows into one block buffer, kicks and drifts; the closing pass
    refills the rows with the setup of the drifted positions, gathers again
    and kicks, so on return ``cic`` is the setup of the drifted ``pos``.
    Each kick adds its 0.5 dt |E| to ``fint``. Both kicks read the same
    frozen field, so the result is that of two whole-array passes.

    ``midpoint``, when given, is called once between the passes and its
    result returned (else None). The opening pass then refills each block's
    rows, right after its gather, with the setup of the half-step positions
    ``pos + 0.5 dt v``: between the passes ``cic`` holds that setup and
    ``vel`` the velocities after the opening kick.
    """
    nodes = egrid.shape[0]
    e = component_major(min(pos.shape[0], BLOCK))
    for sl, blk in blocks(cic):
        # gather_vec by its module-global name, so a wrapper installed there
        # sees both gathers of every block
        eb = gather_vec(egrid, blk, e[: blk[0].shape[0]])
        v, p = vel[sl], pos[sl]
        v += 0.5 * dt * eb
        fint[sl] += 0.5 * dt * np.sqrt(row_norm2(eb))
        if midpoint is not None:
            fill_setup(p + 0.5 * dt * v, x0, h, nodes, blk)
        p += dt * v
    out = None if midpoint is None else midpoint()
    for sl, blk in blocks(cic):
        fill_setup(pos[sl], x0, h, nodes, blk)
        eb = gather_vec(egrid, blk, e[: blk[0].shape[0]])
        vel[sl] += 0.5 * dt * eb
        fint[sl] += 0.5 * dt * np.sqrt(row_norm2(eb))
    return out


# only so that perfbench/spans.py, which wraps this name, still finds it
np_gather_vec = gather_vec
