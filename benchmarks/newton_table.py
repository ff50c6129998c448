"""Electron-solve cost on the quasi-neutral shape: Newton and CG totals and CPU of the warm solves.

Usage (from the repository root):

  python3 benchmarks/newton_table.py

The shape is the physics of the ``quasi-neutral`` benchmark workload:
``tests/conftest.py::make_scenario`` with 32^3 nodes and 2e4 ions (dt =
0.005, seed 1234), at the eps and step count of each row (``ROWS``), with
one checkpoint at the end. Each row is one ``vpme.runner.run`` into a temporary
directory, in this process. A wrapper around ``fieldsolve.solve_uhat``
counts the warm solves, those after t = 0: their Newton steps, CG
iterations, CPU time (``time.process_time``) and how many of them re-solved
their border columns. A wrapper around ``fieldsolve.solve_field`` reads the
certificate margins of the same solves: the worst contract residual
``residual_inf / max(1, max g e^U)`` and the worst |Gauss defect|. The last
column is the wall time of the whole run. A run that aborts prints its
error in place of its totals. The vpme under ``src/`` next to this file is
the one measured; BLAS runs on one thread unless the environment already
sets ``OPENBLAS_NUM_THREADS``.
"""

import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (eps, steps): the quasi-neutral workload's, then longer runs down to eps 0.0025
ROWS = ((0.1, 6), (0.1, 60), (0.02, 40), (0.01, 20), (0.005, 6), (0.0025, 3))


def _row(eps, steps):
    import numpy as np
    from conftest import make_scenario
    from vpme import fieldsolve, runner
    from vpme.mesh import GridSpec
    from vpme.pusher import TimeSpec

    cfg = make_scenario(
        grid=GridSpec(half_width=4.0, nodes=32),
        count=20_000,
        epsilon=eps,
        time=TimeSpec(dt=0.005, t_end=steps * 0.005, checkpoint_every=steps),
    )
    solve_uhat, solve_field = fieldsolve.solve_uhat, fieldsolve.solve_field
    warm, margins = [], []

    def counted(*args, **kwargs):
        if kwargs.get("initial") is None:
            return solve_uhat(*args, **kwargs)
        start = time.process_time()
        hat = solve_uhat(*args, **kwargs)
        refreshed = hat.border_columns is not kwargs.get("border_columns")
        warm.append((hat.iterations, hat.cg_iterations, time.process_time() - start, refreshed))
        return hat

    def audited(rho, g, *args, **kwargs):
        sol = solve_field(rho, g, *args, **kwargs)
        if kwargs.get("warm") is not None:
            scale = max(1.0, float((g.values * np.exp(sol.u.values)).max()))
            margins.append((sol.residual_inf / scale, abs(sol.gauss_imbalance)))
        return sol

    fieldsolve.solve_uhat, fieldsolve.solve_field = counted, audited
    try:
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            runner.run(cfg, Path(tmp) / "run")
            wall = time.perf_counter() - start
    except fieldsolve.FieldSolveError as exc:
        return f"| {eps:g} | {steps} | abort after {len(warm)} warm solves: {exc} |"
    finally:
        fieldsolve.solve_uhat, fieldsolve.solve_field = solve_uhat, solve_field
    newton, cg, cpu, refreshes = (sum(col) for col in zip(*warm))
    residual, gauss = (max(col) for col in zip(*margins))
    per_solve = " ".join(str(n) for n, *_ in warm)
    return (
        f"| {eps:g} | {steps} | {newton} / {cg} | {cpu:.2f} s | {refreshes} | {residual:.1e} "
        f"| {gauss:.1e} | {per_solve} | {wall:.2f} s |"
    )


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    print(
        "| eps | steps | warm Newton / CG | warm CPU | refreshes | worst residual / scale "
        "| worst abs Gauss | Newton per warm solve | run |"
    )
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for eps, steps in ROWS:
        print(_row(eps, steps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
