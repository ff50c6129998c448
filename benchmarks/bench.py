"""The north-star benchmark row: the acceptance baseline scenario, cut to 40 steps.

Usage (from the repository root):

  python3 benchmarks/bench.py --label <name> [--repeats 3]

The scenario is ``tests/conftest.py::make_scenario`` as the acceptance suite
builds it (1e5 Maxwellian ions, 48^3 nodes, eps = 0.5, dt = 0.005, seed
1234), with ``t_end`` cut to 40 steps. Each repeat is one ``vpme.runner.run``
into a temporary directory, in this process, one after another; the vpme
under ``src/`` next to this file is the one measured. The wall time of a
repeat is that of the whole ``runner.run`` call (sampling, the t = 0 solve,
40 steps and the artifact writes), and ``ion_steps_per_s`` is ion count
times steps over it. BLAS runs on one thread unless the environment already
sets ``OPENBLAS_NUM_THREADS``.

The result goes to ``benchmarks/BENCH_<label>.json``: the median, min and
max of both metrics over the repeats, each repeat's values, ``peak_rss_mb``,
and nproc, the numpy and scipy versions and ``kernels.BACKEND``.
``peak_rss_mb`` is the process's ``ru_maxrss`` read after the last repeat,
so it is the maximum over all repeats (and the imports), in MB of 1024 KiB.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STEPS = 40


def _summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--repeats", type=int, default=3, help="runs of the scenario (at least 3)")
    args = ap.parse_args(argv)
    if args.repeats < 3:
        ap.error("--repeats must be at least 3")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy
    import scipy

    from conftest import make_scenario
    from vpme import kernels, runner
    from vpme.pusher import TimeSpec

    base = make_scenario()
    cfg = make_scenario(
        time=TimeSpec(
            dt=base.time.dt,
            t_end=STEPS * base.time.dt,
            checkpoint_every=base.time.checkpoint_every,
        )
    )
    if cfg.time.steps != STEPS:
        raise RuntimeError(f"scenario cut to {cfg.time.steps} steps, not {STEPS}")

    walls = []
    for k in range(args.repeats):
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            runner.run(cfg, Path(tmp) / "run")
            walls.append(time.perf_counter() - start)
        print(f"repeat {k + 1}/{args.repeats}: {walls[-1]:.3f} s", file=sys.stderr)
    rates = [cfg.count * STEPS / w for w in walls]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "label": args.label,
        "scenario": "tests/conftest.py::make_scenario, cut to 40 steps",
        "steps": STEPS,
        "ion_count": cfg.count,
        "nodes": cfg.grid.nodes,
        "epsilon": cfg.epsilon,
        "seed": cfg.seed,
        "repeats": args.repeats,
        "wall_s": dict(_summary(walls), runs=walls),
        "ion_steps_per_s": dict(_summary(rates), runs=rates),
        "peak_rss_mb": peak_rss_mb,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.BACKEND,
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("label", "wall_s", "ion_steps_per_s", "peak_rss_mb")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
