"""Deposit/gather/push kernels: the reference oracle and transfer identities."""

import tracemalloc

import numpy as np
import pytest

from vpme import kernels

RNG = np.random.default_rng(42)
L, NODES = 2.0, 12
H = 2.0 * L / (NODES - 1)
X0 = -L


def _cloud(n, spread=1.8):
    pos = RNG.uniform(-spread, spread, (n, 3))
    w = RNG.uniform(0.1, 2.0, n)
    vec = RNG.standard_normal((n, 3))
    return pos, w, vec


def _setup(pos):
    return kernels.cic_setup(pos, X0, H, NODES)


def _ref_setup(pos, nodes):
    # the reference CIC setup, whole-array: mask, 3-tuple base indices, fractions
    s = (pos - X0) / H
    inbox = ((s >= -kernels.EDGE_TOL) & (s <= nodes - 1.0 + kernels.EDGE_TOL)).all(axis=1)
    s = np.clip(s[inbox], 0.0, nodes - 1.0)
    idx = np.minimum(s.astype(np.int64), nodes - 2)
    return inbox, idx, s - idx


def _ref_corners(pos, nodes):
    # the reference numpy CIC: 3-tuple node indices and per-corner weights,
    # in the corner order and product order the flat-index kernels keep
    inbox, idx, f = _ref_setup(pos, nodes)
    g = 1.0 - f
    corners = []
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                cw = (f if dx else g)[:, 0] * (f if dy else g)[:, 1] * (f if dz else g)[:, 2]
                corners.append(((idx[:, 0] + dx, idx[:, 1] + dy, idx[:, 2] + dz), cw))
    return inbox, corners


def _ref_deposit(pos, w, vec, nodes):
    inbox, corners = _ref_corners(pos, nodes)
    rho, cur = np.zeros((nodes,) * 3), np.zeros((nodes,) * 3 + (3,))
    for at, cw in corners:
        np.add.at(rho, at, w[inbox] * cw)
        np.add.at(cur, at, (w[inbox] * cw)[:, None] * vec[inbox])
    return float(w[inbox].sum()), rho, cur


def _ref_gather(grid, pos):
    inbox, corners = _ref_corners(pos, grid.shape[0])
    acc = np.zeros((int(inbox.sum()), 3))
    for at, cw in corners:
        acc += cw[:, None] * grid[at]
    out = np.zeros_like(pos)
    out[inbox] = acc
    return out


def _oracle_cloud():
    # interior and far-out particles, box faces and corners, and exact nodes
    pos, w, vec = _cloud(2000, spread=2.6)
    nodes = X0 + H * RNG.integers(0, NODES, (100, 3))
    faces = RNG.uniform(-L, L, (60, 3))
    faces[np.arange(60), RNG.integers(0, 3, 60)] = RNG.choice([-L, L], 60)
    corners = L * np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
    pos = np.concatenate([pos, nodes, faces, corners])
    n = pos.shape[0]
    return pos, RNG.uniform(0.1, 2.0, n), RNG.standard_normal((n, 3))


def _check_shared_setup_against_reference(pos, w, vec):
    # one setup feeds all three kernels, as the runner's does
    cic = _setup(pos)
    inbox, rho, cur = _ref_deposit(pos, w, vec, NODES)
    out = np.zeros((NODES,) * 3)
    assert kernels.deposit(cic, w, out) == inbox
    assert (out == rho).all()
    out = np.zeros((NODES,) * 3 + (3,))
    assert kernels.deposit_vec(cic, w, vec, out) == inbox
    assert (out == cur).all()
    grid = RNG.standard_normal((NODES,) * 3 + (3,))
    got = np.full_like(pos, np.nan)
    kernels.gather_vec(grid, cic, got)
    assert (got == _ref_gather(grid, pos)).all()
    return cic


def test_numpy_kernels_match_reference_bitwise():
    pos, w, vec = _oracle_cloud()
    assert ((np.abs(pos) > L).any(axis=1)).sum() > 100
    cic = _check_shared_setup_against_reference(pos, w, vec)
    assert cic[0].dtype == bool  # the compress path


def test_shared_setup_without_escapees_matches_reference_bitwise():
    # every particle in the box, faces and nodes included: an all-true mask
    pos, w, vec = _oracle_cloud()
    keep = (np.abs(pos) <= L).all(axis=1)
    pos, w, vec = pos[keep], w[keep], vec[keep]
    assert (np.abs(pos) == L).any(axis=1).sum() > 50
    cic = _check_shared_setup_against_reference(pos, w, vec)
    assert cic[0].dtype == bool and cic[0].all()


def test_setup_mask_base_and_fractions():
    pos = np.array([[X0 + 3.25 * H, X0 + 5.5 * H, L], [L + 1.0, 0.0, 0.0], [X0, X0 + 0.5 * H, 0.0]])
    inbox, base, frac = _setup(pos)
    assert inbox.tolist() == [True, False, True]
    # the top face clamps to the last cell, with fraction 1
    assert base.tolist() == [(3 * NODES + 5) * NODES + NODES - 2, 5]
    assert np.allclose(frac, [[0.25, 0.5, 1.0], [0.0, 0.5, 0.5]], atol=1e-12)


def test_row_norm2_sums_x_y_then_z():
    a = RNG.standard_normal((1000, 3)) * 10.0 ** RNG.uniform(-8, 8, (1000, 3))
    expect = np.array([(x * x + y * y) + z * z for x, y, z in a.tolist()])
    assert (kernels.row_norm2(a) == expect).all()


def test_numpy_deposit_rejects_a_strided_target():
    # a reshaped copy would take the deposit and drop it silently
    pos, w, vec = _cloud(10)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.deposit(_setup(pos), w, np.zeros((NODES,) * 3 + (2,))[..., 0])
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.deposit_vec(_setup(pos), w, vec, np.zeros((NODES,) * 3 + (6,))[..., ::2])


def test_deposit_conserves_inbox_mass():
    pos, w, _ = _cloud(500)
    pos[:20] += 10.0  # park some particles far outside
    pos[20:25, 1] = np.nan  # a NaN position has escaped too
    out = np.zeros((NODES,) * 3)
    inbox = kernels.deposit(_setup(pos), w, out)
    expect = w[(np.abs(pos) <= L).all(axis=1)].sum()
    assert abs(inbox - expect) < 1e-12
    assert abs(out.sum() - inbox) < 1e-12


def test_deposit_partition_of_unity():
    # a single particle's eight corner weights sum to its weight
    pos = np.array([[0.137, -0.528, 1.002]])
    w = np.array([0.7])
    out = np.zeros((NODES,) * 3)
    kernels.deposit(_setup(pos), w, out)
    assert abs(out.sum() - 0.7) < 1e-15
    assert (out >= 0.0).all()
    assert np.count_nonzero(out) <= 8


def test_deposit_particle_on_node_hits_one_node():
    pos = np.array([[X0 + 3 * H, X0 + 5 * H, X0 + 2 * H]])
    w = np.array([1.25])
    out = np.zeros((NODES,) * 3)
    kernels.deposit(_setup(pos), w, out)
    assert out[3, 5, 2] == pytest.approx(1.25, abs=1e-14)
    assert np.count_nonzero(np.abs(out) > 1e-14) == 1


def test_edge_particles_are_kept():
    # particles exactly on the box faces and corners must not be miscounted
    # as escaped by the rounding of (x - x0)/h
    corners = np.array(
        [
            [L, L, L],
            [-L, -L, -L],
            [L, -L, L],
            [X0 + 11 * H, 0.0, 0.0],
        ]
    )
    w = np.ones(len(corners))
    out = np.zeros((NODES,) * 3)
    inbox = kernels.deposit(_setup(corners), w, out)
    assert inbox == pytest.approx(len(corners), abs=1e-12)
    assert out.sum() == pytest.approx(len(corners), abs=1e-12)


def test_gather_zero_outside_box():
    grid = RNG.standard_normal((NODES, NODES, NODES, 3))
    pos = np.array([[L + 0.5, 0.0, 0.0], [0.0, -L - 1e-6, 0.0], [0.0, np.nan, 0.0]])
    out = np.empty((3, 3))
    kernels.gather_vec(grid, _setup(pos), out)
    assert (out == 0.0).all()


def test_gather_at_nodes_and_outside():
    grid = RNG.standard_normal((NODES, NODES, NODES, 3))
    ax = X0 + H * np.arange(NODES)
    pos = np.array([[ax[3], ax[7], ax[1]], [ax[0], ax[0], ax[0]], [L + 1.0, 0.0, 0.0]])
    out = np.empty((3, 3))
    assert kernels.gather_vec(grid, _setup(pos), out) is out
    assert out.shape == (3, 3)
    assert np.allclose(out[0], grid[3, 7, 1], atol=1e-14)
    assert np.allclose(out[1], grid[0, 0, 0], atol=1e-14)
    assert (out[2] == 0.0).all()


def test_gather_matches_trilinear_by_hand():
    grid = RNG.standard_normal((NODES, NODES, NODES, 3))
    pos = np.array([[0.3, -0.7, 1.1]])
    s = (pos[0] - X0) / H
    i = s.astype(int)
    f = s - i
    expect = np.zeros(3)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                cw = (f[0] if dx else 1 - f[0]) * (f[1] if dy else 1 - f[1]) * (f[2] if dz else 1 - f[2])
                expect += cw * grid[i[0] + dx, i[1] + dy, i[2] + dz]
    out = np.empty((1, 3))
    kernels.gather_vec(grid, _setup(pos), out)
    assert np.allclose(out[0], expect, atol=1e-14)


def test_deposit_gather_adjoint():
    # sum_nodes deposit(w)[n] * F[n] == sum_particles w_p * gather(F)[p]
    pos, w, _ = _cloud(400)
    grid = RNG.standard_normal((NODES, NODES, NODES, 3))
    rho = np.zeros((NODES,) * 3)
    kernels.deposit(_setup(pos), w, rho)
    gathered = np.empty_like(pos)
    kernels.gather_vec(grid, _setup(pos), gathered)
    lhs = float((rho[..., None] * grid).sum(axis=(0, 1, 2))[0])
    rhs = float((w[:, None] * gathered).sum(axis=0)[0])
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_push_semantics_single_particle():
    # one kick-drift-kick against a hand-stepped reference
    egrid = RNG.standard_normal((NODES, NODES, NODES, 3))
    pos = np.array([[0.2, 0.1, -0.4]])
    vel = np.array([[0.5, -0.2, 0.3]])
    dt = 0.02

    def gathered(at):
        out = np.empty((1, 3))
        kernels.gather_vec(egrid, _setup(at), out)
        return out[0]

    e1 = gathered(pos)
    v_half = vel[0] + 0.5 * dt * e1
    x1 = pos[0] + dt * v_half
    e2 = gathered(x1[None, :])
    v1 = v_half + 0.5 * dt * e2
    fint_expect = 0.5 * dt * (np.linalg.norm(e1) + np.linalg.norm(e2))

    p = pos.copy()
    v = vel.copy()
    fint = np.zeros(1)
    xm = np.empty_like(p)
    vm = np.empty_like(v)
    kernels.push_kdk(p, v, fint, egrid, X0, H, dt, xm, vm)
    assert np.allclose(p[0], x1, atol=1e-15)
    assert np.allclose(v[0], v1, atol=1e-15)
    assert np.allclose(vm[0], v_half, atol=1e-15)
    assert np.allclose(xm[0], pos[0] + 0.5 * dt * v_half, atol=1e-15)
    assert fint[0] == pytest.approx(fint_expect, abs=1e-15)


def test_push_repeat_is_bitwise_deterministic():
    pos, _, _ = _cloud(200)
    vel = RNG.standard_normal((200, 3))
    egrid = RNG.standard_normal((NODES, NODES, NODES, 3))
    results = []
    for _ in range(2):
        p = pos.copy()
        v = vel.copy()
        fint = np.zeros(200)
        xm = np.empty_like(p)
        vm = np.empty_like(v)
        for _ in range(5):
            kernels.push_kdk(p, v, fint, egrid, X0, H, 0.01, xm, vm)
        results.append((p.copy(), v.copy(), fint.copy()))
    for a, b in zip(*results):
        assert (a == b).all()


def _ref_push(pos, vel, fint, egrid, dt, xmid, vmid):
    # the unblocked kick-drift-kick, with whole-array E and |E| temporaries
    e1 = _ref_gather(egrid, pos)
    vel += 0.5 * dt * e1
    vmid[:] = vel
    xmid[:] = pos + 0.5 * dt * vel
    pos += dt * vel
    e2 = _ref_gather(egrid, pos)
    vel += 0.5 * dt * e2
    fint += 0.5 * dt * (np.sqrt(kernels.row_norm2(e1)) + np.sqrt(kernels.row_norm2(e2)))


def _block_edge_cloud(block):
    # 5 blocks and a partial one; escaped and NaN rows sit on the block edges,
    # and the fourth block lies wholly outside the box
    pos, w, vec = _oracle_cloud()
    n = 5 * block + block // 2 + 1
    pos, w, vec = pos[:n].copy(), w[:n], vec[:n]
    pos[: 3 * block] = RNG.uniform(-0.9 * L, 0.9 * L, (3 * block, 3))
    edges = np.array([block - 1, block, 2 * block - 1, 2 * block, n - 1])
    pos[edges[:3], 0] = L + 0.5
    pos[edges[3:], 2] = np.nan
    pos[3 * block : 4 * block, 1] = -L - 1.0
    return pos, w, vec


@pytest.mark.parametrize("block", [7, 64])
def test_blocked_kernels_match_reference_bitwise(monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK", block)
    pos, w, vec = _block_edge_cloud(block)
    inbox, base, frac = cic = _check_shared_setup_against_reference(pos, w, vec)
    ref_inbox, idx, ref_frac = _ref_setup(pos, NODES)
    assert (inbox == ref_inbox).all()
    assert (base == (idx[:, 0] * NODES + idx[:, 1]) * NODES + idx[:, 2]).all()
    assert (frac == ref_frac).all()
    assert not inbox[3 * block : 4 * block].any()
    assert [sl.start for sl, _, _ in kernels.blocks(cic)] == list(range(0, len(pos), block))


@pytest.mark.parametrize("block", [7, 64])
def test_blocked_push_matches_unblocked_push_bitwise(monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK", block)
    pos, _, vel = _block_edge_cloud(block)
    egrid = RNG.standard_normal((NODES,) * 3 + (3,))
    got = [pos.copy(), vel.copy(), np.zeros(len(pos)), np.empty_like(pos), np.empty_like(pos)]
    ref = [a.copy() for a in got]
    cic = None
    for _ in range(3):
        cic = kernels.push_kdk(*got[:3], egrid, X0, H, 0.01, *got[3:], cic)
        _ref_push(*ref[:3], egrid, 0.01, *ref[3:])
        for a, b in zip(got, ref):
            assert (a == b)[~np.isnan(b)].all() and (np.isnan(a) == np.isnan(b)).all()
        for a, b in zip(cic[0], kernels.cic_setup(ref[0], X0, H, NODES)):
            assert (a == b).all()


def test_push_working_memory_is_the_new_setup_plus_a_block():
    # a whole-array push (the unblocked kernels) peaked at 26.7 MB here, this one at 8.2 MB
    rng = np.random.default_rng(5)
    n = 200_000
    pos = rng.uniform(-1.1 * L, 1.1 * L, (n, 3))
    vel = rng.standard_normal((n, 3))
    fint, xm, vm = np.zeros(n), np.empty_like(pos), np.empty_like(vel)
    egrid = rng.standard_normal((NODES,) * 3 + (3,))
    cic = [_setup(pos)]
    tracemalloc.start()
    try:
        kernels.push_kdk(pos, vel, fint, egrid, X0, H, 0.01, xm, vm, cic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    setup = sum(a.nbytes for a in cic[0])
    # the new setup, |E1| per ion, the component-major E grid, and per block
    # particle the gathered E, its kick and drift temporaries (94 bytes measured)
    assert peak <= setup + 8 * n + egrid.nbytes + 128 * kernels.BLOCK
