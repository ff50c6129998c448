"""Deposit/gather/push kernels: the reference oracle and transfer identities."""

import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import small_scenario

from vpme import diagnostics, fieldsolve, kernels, mesh, pusher, runner
from vpme.particles import ParticleEnsemble

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
    return float(w[~inbox].sum()), rho, cur


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
    escaped, rho, cur = _ref_deposit(pos, w, vec, NODES)
    out = np.zeros((NODES,) * 3)
    assert kernels.deposit(cic, w, out) == escaped
    assert (out == rho).all()
    out = kernels.component_major((NODES,) * 3, zeros=True)
    kernels.deposit_vec(cic, w, vec, out)
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
    assert cic[0].dtype == bool  # the mask, escaped rows included


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
    assert base[inbox].tolist() == [(3 * NODES + 5) * NODES + NODES - 2, 5]
    assert np.allclose(frac[inbox], [[0.25, 0.5, 1.0], [0.0, 0.5, 0.5]], atol=1e-12)


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
    escaped = kernels.deposit(_setup(pos), w, out)
    expect = w[~(np.abs(pos) <= L).all(axis=1)].sum()
    assert abs(escaped - expect) < 1e-12
    assert abs(out.sum() - (w.sum() - escaped)) < 1e-12


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
    escaped = kernels.deposit(_setup(corners), w, out)
    assert escaped == pytest.approx(0.0, abs=1e-12)
    assert out.sum() == pytest.approx(w.sum() - escaped, abs=1e-12)


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
    cic = _setup(p)

    def midpoint():
        return [a.copy() for a in cic], v.copy()

    mid_cic, vm = kernels.push_kdk(p, v, fint, egrid, X0, H, dt, cic, midpoint)
    assert np.allclose(p[0], x1, atol=1e-15)
    assert np.allclose(v[0], v1, atol=1e-15)
    assert np.allclose(vm[0], v_half, atol=1e-15)
    for a, b in zip(mid_cic, _setup((pos[0] + 0.5 * dt * v_half)[None, :])):
        assert np.allclose(a, b, atol=1e-15)
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
        cic = _setup(p)
        for _ in range(5):
            kernels.push_kdk(p, v, fint, egrid, X0, H, 0.01, cic)
        results.append((p.copy(), v.copy(), fint.copy()))
    for a, b in zip(*results):
        assert (a == b).all()


def _ref_push(pos, vel, fint, egrid, dt, xmid, vmid):
    # the unblocked kick-drift-kick, with whole-array E and |E| temporaries;
    # each kick adds its half of the field integral
    e1 = _ref_gather(egrid, pos)
    vel += 0.5 * dt * e1
    fint += 0.5 * dt * np.sqrt(kernels.row_norm2(e1))
    vmid[:] = vel
    xmid[:] = pos + 0.5 * dt * vel
    pos += dt * vel
    e2 = _ref_gather(egrid, pos)
    vel += 0.5 * dt * e2
    fint += 0.5 * dt * np.sqrt(kernels.row_norm2(e2))


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
    assert (base[inbox] == (idx[:, 0] * NODES + idx[:, 1]) * NODES + idx[:, 2]).all()
    assert (frac[inbox] == ref_frac).all()
    assert not inbox[3 * block : 4 * block].any()
    assert [sl.start for sl, _ in kernels.blocks(cic)] == list(range(0, len(pos), block))


@pytest.mark.parametrize("block", [7, 64])
def test_blocked_push_matches_unblocked_push_bitwise(monkeypatch, block):
    monkeypatch.setattr(kernels, "BLOCK", block)
    pos, _, vel = _block_edge_cloud(block)
    egrid = RNG.standard_normal((NODES,) * 3 + (3,))
    got = [pos.copy(), vel.copy(), np.zeros(len(pos))]
    ref = [a.copy() for a in got] + [np.empty_like(pos), np.empty_like(pos)]
    cic = _setup(pos)

    def midpoint():
        # the setup of the half-step positions and the half-step velocities
        return [a.copy() for a in cic], got[1].copy()

    for _ in range(3):
        mid = kernels.push_kdk(*got, egrid, X0, H, 0.01, cic, midpoint)
        _ref_push(*ref[:3], egrid, 0.01, *ref[3:])
        for a, b in zip(got + [mid[1]], ref[:3] + ref[4:]):
            assert (a == b)[~np.isnan(b)].all() and (np.isnan(a) == np.isnan(b)).all()
        # the setups of the drifted and of the half-step positions
        for got_cic, at in ((cic, ref[0]), (mid[0], ref[3])):
            for a, b in zip(got_cic, kernels.cic_setup(at, X0, H, NODES)):
                assert (a == b).all()


def test_push_working_memory_is_the_field_grid_plus_a_block():
    # a whole-array push (the unblocked kernels) peaked at 26.7 MB here; a
    # push that built a second setup and kept |E1| per ion, 10.1 MB
    rng = np.random.default_rng(5)
    n = 200_000
    pos = rng.uniform(-1.1 * L, 1.1 * L, (n, 3))
    vel = rng.standard_normal((n, 3))
    fint = np.zeros(n)
    egrid = rng.standard_normal((NODES,) * 3 + (3,))
    cic = _setup(pos)
    peaks = []
    tracemalloc.start()
    try:
        # without and with a midpoint, which here does nothing
        for m in (None, lambda: None):
            tracemalloc.reset_peak()
            kernels.push_kdk(pos, vel, fint, egrid, X0, H, 0.01, cic, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    # the setup is refilled in place, so only the planes of the E grid (each
    # gather copies them, as this egrid is row-major) and, per block
    # particle, the gathered E, its kick and drift temporaries and the
    # refill's (100 bytes measured) remain
    assert max(peaks) <= egrid.nbytes + 128 * kernels.BLOCK


@pytest.mark.parametrize("call", ["record", "deposit_density", "current_from_arrays"])
def test_checkpoint_and_deposit_working_memory_is_per_block(call):
    # whole-array sums over speed powers and zero-padded weights peaked at
    # 4.90 (record), 2.42 (deposit_density) and 2.49 MB (current) here;
    # per block they read 0.89, 0.82 and 0.89 MB
    rng = np.random.default_rng(8)
    n = 200_000
    grid = mesh.GridSpec(half_width=L, nodes=16)
    ens = ParticleEnsemble(
        positions=rng.uniform(-1.1 * L, 1.1 * L, (n, 3)),
        velocities=rng.standard_normal((n, 3)),
        weights=rng.uniform(0.5, 1.5, n) / n,
    )
    cic = kernels.cic_setup(ens.positions, grid.origin, grid.spacing, grid.nodes)
    sol = fieldsolve.zero_solution(grid, 0.5)
    rho = mesh.deposit_density(ens, grid, cic)
    acc = diagnostics.DiagnosticsAccumulator(2.5)
    run = {
        # the ion density stands in for the background g
        "record": lambda: acc.record(0.0, ens, sol, rho, rho, 0.0),
        "deposit_density": lambda: mesh.deposit_density(ens, grid, cic),
        "current_from_arrays": lambda: mesh.current_from_arrays(cic, ens.velocities, ens.weights, grid),
    }[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_warm_solve_and_checkpoint_working_memory_in_grids(monkeypatch, tmp_path):
    # the quasi-neutral workload's shape (32^3 nodes, 2e4 ions, eps 0.1): the
    # traced peak of a call above the memory live when it starts, in grids of
    # N^3 float64. Holding the previous solution, the Newton states' sources
    # and residuals and the whole gradient and |E|^2, they read 11.9 (warm
    # solve_field) and 8.0 (record)
    cfg = small_scenario(
        grid=mesh.GridSpec(half_width=4.0, nodes=32),
        epsilon=0.1,
        count=20_000,
        time=pusher.TimeSpec(dt=0.005, t_end=0.01, checkpoint_every=1),
    )
    grid_bytes = 8.0 * cfg.grid.nodes**3
    peaks = {"warm solve_field": [], "record": []}

    def traced(name, fn):
        def call(*args, **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            peaks[name].append((tracemalloc.get_traced_memory()[1] - live) / grid_bytes)
            return out

        return call

    solve, solve_warm = fieldsolve.solve_field, traced("warm solve_field", fieldsolve.solve_field)

    def solve_field(rho, g, eps, warm=None):
        return (solve if warm is None else solve_warm)(rho, g, eps, warm=warm)

    monkeypatch.setattr(fieldsolve, "solve_field", solve_field)
    record = diagnostics.DiagnosticsAccumulator.record
    monkeypatch.setattr(diagnostics.DiagnosticsAccumulator, "record", traced("record", record))
    tracemalloc.start()
    try:
        runner.run(cfg, tmp_path / "run")
    finally:
        tracemalloc.stop()
    assert len(peaks["warm solve_field"]) == 2 and len(peaks["record"]) == 3
    assert max(peaks["warm solve_field"]) <= 10.0
    assert max(peaks["record"]) <= 6.0


def test_memory_peaks_reads_every_phase_of_a_smoke_run():
    # benchmarks/memory_peaks.py wraps the phases by module attribute, so a
    # renamed phase must break a test, not the table
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "memory_peaks.py"
    spec = importlib.util.spec_from_file_location("memory_peaks", path)
    peaks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(peaks)
    step, record = pusher.step, diagnostics.DiagnosticsAccumulator.record
    got = peaks.measure(peaks._workloads().SMOKE["dense-ions"], 1234, traced=True)
    # 2 steps, each a checkpoint, and 4 snapshot files per checkpoint
    assert {phase: calls for phase, (calls, _, _) in got["phases"].items()} == {
        "particles.sample_initial": 1,
        "kernels.cic_setup": 1,
        "mesh.deposit_density": 3,
        "pusher.step": 2,
        "diagnostics.continuity_residual": 2,
        "fieldsolve.solve_field": 3,
        "diagnostics.record": 3,
        "mesh.write_field": 12,
    }
    assert all(0 <= live < peak for _, peak, live in got["phases"].values())
    assert got["maxrss_mb"] > 0.0 and got["loop_faults"] >= 0
    # the run puts the phases back as it found them
    assert pusher.step is step and diagnostics.DiagnosticsAccumulator.record is record


@pytest.mark.parametrize("block", [kernels.BLOCK, 257, 7])
def test_pairwise_sum_walks_numpys_tree_bitwise(monkeypatch, block):
    # numpy's own pairwise sum is the reference; at a BLOCK under numpy's
    # 128-item leaf the walk must still stop
    monkeypatch.setattr(kernels, "BLOCK", block)
    rng = np.random.default_rng(9)
    top = 1_234_567
    a = rng.standard_normal(top) * 10.0 ** rng.uniform(-5, 5, top)
    w, s = rng.uniform(0.5, 1.5, top), np.abs(a)
    ks = (2.0, 2.5, 3.0)
    sizes = list(range(1, 301)) + [8191, 8192, 8193, 16383, 16384, 16385, 20_000, 100_000, 400_000, top]
    for n in sizes:
        assert kernels.pairwise_sum(n, lambda lo, hi: a[lo:hi].sum()) == a[:n].sum(), n
        got = kernels.pairwise_sum(
            n, lambda lo, hi: np.array([(w[lo:hi] * s[lo:hi] ** k).sum() for k in ks])
        )
        assert got.tolist() == [(w[:n] * s[:n] ** k).sum() for k in ks], n
        # a sampled ensemble's weights are one value broadcast, with stride 0
        assert np.broadcast_to(1.0 / n, (n,)).sum() == np.full(n, 1.0 / n).sum(), n


def test_push_gathers_twice_per_block(monkeypatch):
    # 2.5 blocks: the opening gathers of the three blocks, then the closing ones
    block = 64
    monkeypatch.setattr(kernels, "BLOCK", block)
    n = 5 * block // 2
    pos = RNG.uniform(-1.1 * L, 1.1 * L, (n, 3))
    vel = RNG.standard_normal((n, 3))
    calls = []
    gather = kernels.gather_vec

    def counted(*args):
        calls.append(args[1][0].shape[0])
        return gather(*args)

    monkeypatch.setattr(kernels, "gather_vec", counted)
    egrid = RNG.standard_normal((NODES,) * 3 + (3,))
    kernels.push_kdk(pos, vel, np.zeros(n), egrid, X0, H, 0.01, _setup(pos))
    assert calls == [block, block, block // 2, block, block, block // 2]


def _has_component_planes(a):
    # an (..., 3) view of a C-ordered (3, ...) array: each component is contiguous
    return a.shape[-1] == 3 and np.moveaxis(a, -1, 0).flags.c_contiguous


def test_setup_fractions_are_component_major(tmp_path):
    # the layout rule: every array of 3-vectors, per particle or per node
    pos, _, _ = _cloud(100)
    for frac in (_setup(pos)[2], kernels.empty_setup(100)[2]):
        assert frac.shape == (100, 3) and _has_component_planes(frac)
    cfg = small_scenario()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 16^3 background is renormalized
        g = mesh.evaluate_g(cfg.g_profile, cfg.grid)
    for drift in ((0.0, 0.0, 0.0), (0.5, 0.0, -0.25)):
        ens = runner._build_ensemble(small_scenario(drift=drift), g, cfg.seed)
        for a in (ens.positions, ens.velocities, ens.initial_velocities):
            assert _has_component_planes(a)
    grid = cfg.grid
    cic = kernels.cic_setup(ens.positions, grid.origin, grid.spacing, grid.nodes)
    sol = fieldsolve.solve_field(mesh.deposit_density(ens, grid, cic), g, cfg.epsilon)
    j = mesh.current_from_arrays(cic, ens.velocities, ens.weights, grid)
    mesh.write_field(tmp_path / "e.field", "e", sol.e)
    _, back = mesh.read_field(tmp_path / "e.field")
    for fld in (sol.e, fieldsolve.zero_solution(grid, cfg.epsilon).e, j, back):
        assert _has_component_planes(fld.values)
    assert _has_component_planes(grid.node_coords())
    # the snapshot holds the (N, N, N, 3) values in C order, whatever the layout
    assert (tmp_path / "e.field").read_bytes().endswith(np.ascontiguousarray(sol.e.values).tobytes())
    assert (back.values == sol.e.values).all()


def test_gather_into_row_and_component_major_out_is_bitwise_equal(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK", 64)
    pos, _, _ = _block_edge_cloud(64)
    cic = _setup(pos)
    grid = RNG.standard_normal((NODES,) * 3 + (3,))
    rows = np.full_like(pos, np.nan)
    cols = np.full((3, len(pos)), np.nan).T
    kernels.gather_vec(grid, cic, rows)
    kernels.gather_vec(grid, cic, cols)
    assert (rows == cols).all() and (rows == _ref_gather(grid, pos)).all()


def test_deposit_vec_of_row_and_component_major_vec_is_bitwise_equal(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK", 64)
    pos, w, vec = _block_edge_cloud(64)
    cic = _setup(pos)
    outs = []
    for v in (vec, np.ascontiguousarray(vec.T).T):
        out = kernels.component_major((NODES,) * 3, zeros=True)
        kernels.deposit_vec(cic, w, v, out)
        outs.append(out)
    assert (outs[0] == outs[1]).all() and (outs[0] == _ref_deposit(pos, w, vec, NODES)[2]).all()


def test_kernels_bounds_check_the_base_node():
    # a base node whose upper corners lie past the grid: the corner offsets
    # index shifted views, and numpy still checks every index against them
    pos, w, vec = _cloud(50)
    cic = _setup(pos)
    cic[1][0] = NODES**3 - 1
    grid = RNG.standard_normal((NODES,) * 3 + (3,))
    with pytest.raises(IndexError):
        kernels.deposit(cic, w, np.zeros((NODES,) * 3))
    with pytest.raises(IndexError):
        kernels.deposit_vec(cic, w, vec, kernels.component_major((NODES,) * 3, zeros=True))
    with pytest.raises(IndexError):
        kernels.gather_vec(grid, cic, np.empty_like(pos))
    with pytest.raises(IndexError):
        kernels.push_kdk(pos, vec, np.zeros(50), grid, X0, H, 0.01, cic)
