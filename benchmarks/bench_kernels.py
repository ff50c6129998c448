"""Time the particle-grid hot loops on both backends.

Both implementations live in vpme.kernels regardless of which one the
package selected at import, so a single process can compare them and
cross-check that they agree on the same inputs. Without numba
only the numpy kernels are timed. The workload mirrors the demo scenario
shape (1e5 particles on a 48^3 node grid).

Usage: python benchmarks/bench_kernels.py [--count N] [--nodes N] [--repeats N]
"""

import argparse
import time

import numpy as np

from vpme import kernels


def _workload(count, nodes, seed=0):
    rng = np.random.default_rng(seed)
    half_width = 4.0
    h = 2.0 * half_width / (nodes - 1)
    pos = rng.uniform(-half_width, half_width, size=(count, 3))
    vel = rng.normal(0.0, 1.0, size=(count, 3))
    weights = np.full(count, 1.0 / count)
    egrid = rng.normal(0.0, 0.01, size=(nodes, nodes, nodes, 3))
    return pos, vel, weights, egrid, -half_width, h


def _median_ms(fn, repeats):
    fn()  # warm-up (JIT compile on the numba path)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * sorted(times)[len(times) // 2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=100_000, help="particles")
    ap.add_argument("--nodes", type=int, default=48, help="grid nodes per axis")
    ap.add_argument("--repeats", type=int, default=5, help="timed calls per kernel")
    args = ap.parse_args()

    pos, vel, weights, egrid, x0, h = _workload(args.count, args.nodes)
    nodes = args.nodes
    rho = np.zeros((nodes, nodes, nodes))
    jgrid = np.zeros((nodes, nodes, nodes, 3))
    eout = np.empty_like(vel)

    def state():
        return pos.copy(), vel.copy(), np.zeros(args.count), np.empty_like(pos), np.empty_like(vel)

    def push(fn):
        p, v, f, xm, vm = state()
        fn(p, v, f, egrid, x0, h, 0.005, xm, vm)

    cases = [
        (
            "deposit",
            lambda: kernels.np_deposit(pos, weights, x0, h, nodes, rho),
            lambda: kernels.nb_deposit(pos, weights, x0, h, nodes, rho),
        ),
        (
            "deposit_vec",
            lambda: kernels.np_deposit_vec(pos, weights, vel, x0, h, nodes, jgrid),
            lambda: kernels.nb_deposit_vec(pos, weights, vel, x0, h, nodes, jgrid),
        ),
        (
            "gather_vec",
            lambda: kernels.np_gather_vec(egrid, pos, x0, h, eout),
            lambda: kernels.nb_gather_vec(egrid, pos, x0, h, eout),
        ),
        (
            "push_kdk",
            lambda: push(kernels.np_push_kdk),
            lambda: push(kernels.nb_push_kdk),
        ),
    ]

    print(f"{args.count} particles, {nodes}^3 nodes, median of {args.repeats}")
    if not kernels.HAVE_NUMBA:
        # without numba the nb_* bodies are plain-python loops: timing them
        # takes minutes and says nothing about the numba backend
        print("numba not importable; timing the numpy kernels only")
        print(f"{'kernel':<12} {'numpy ms':>10}")
        for name, np_fn, _ in cases:
            print(f"{name:<12} {_median_ms(np_fn, args.repeats):>10.2f}")
        return
    print(f"{'kernel':<12} {'numpy ms':>10} {'numba ms':>10} {'speedup':>8}")
    for name, np_fn, nb_fn in cases:
        t_np = _median_ms(np_fn, args.repeats)
        t_nb = _median_ms(nb_fn, args.repeats)
        print(f"{name:<12} {t_np:>10.2f} {t_nb:>10.2f} {t_np / t_nb:>7.1f}x")

    # agreement check: both backends apply one CIC definition, and the push
    # is bitwise equal when the nb_* bodies run as plain Python; compiled
    # numba may fuse multiply-adds, so the gap printed here need not be zero
    pa, va, fa, xma, vma = state()
    pb, vb, fb, xmb, vmb = state()
    kernels.np_push_kdk(pa, va, fa, egrid, x0, h, 0.005, xma, vma)
    kernels.nb_push_kdk(pb, vb, fb, egrid, x0, h, 0.005, xmb, vmb)
    gap = max(
        float(np.max(np.abs(a - b)))
        for a, b in ((pa, pb), (va, vb), (fa, fb), (xma, xmb), (vma, vmb))
    )
    print(f"max abs gap between backends after one push: {gap:.3e}")


if __name__ == "__main__":
    main()
