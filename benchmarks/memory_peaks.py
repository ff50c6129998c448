"""Working memory of each phase of a run on the benchmark's workload shapes.

Usage (from the repository root):

  python3 benchmarks/memory_peaks.py [--seed 1234]

For each workload of ``perfbench/workloads.py``, which this script reads and
does not change, the scenario is built as ``perfbench/child.py`` builds it
and run once by ``vpme.runner.run`` into a temporary directory, in two fresh
processes, one after the other:

- untraced, for the process's ``ru_maxrss`` (MB of 1024 KiB, as perfbench
  reports ``peak_rss_mb``) and the minor page faults (``ru_minflt``) from the
  first ``pusher.step`` to the end of the run, the loop;
- under ``tracemalloc``, for each phase in ``PHASES``: its calls, and for the
  call with the highest traced peak that peak and the traced memory live
  when the call began, in MiB. A phase's peak counts everything traced
  while it runs, the run-long state included, so the phase with the highest
  peak sets the run's.

Each phase is wrapped through the module attribute vpme calls it by, and put
back afterwards. The vpme under ``src/`` next to this file is the one
measured; BLAS runs on one thread unless the environment already sets
``OPENBLAS_NUM_THREADS``.
"""

import argparse
import functools
import importlib
import multiprocessing
import os
import resource
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (module, attribute) of each phase: the set-up's, then a step's in the order the loop calls them
PHASES = (
    ("particles", "sample_initial"),
    ("kernels", "cic_setup"),
    ("pusher", "step"),
    ("mesh", "deposit_density"),
    ("diagnostics", "continuity_residual"),
    ("fieldsolve", "solve_field"),
    ("diagnostics", "DiagnosticsAccumulator.record"),
    ("mesh", "write_field"),
)


def _workloads():
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads


def _owner(module, attr):
    # the object that holds the phase's attribute, and the attribute's name
    owner = importlib.import_module(f"vpme.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def measure(params, seed, traced):
    """One ``runner.run`` of the workload ``params`` at ``seed``.

    Returns ``{"maxrss_mb", "loop_faults", "phases"}``; ``phases`` maps
    ``module.function`` to (calls, peak bytes, live bytes at that call's
    start), the two sizes 0 when ``traced`` is false.
    """
    _workloads()
    from child import _scenario
    from vpme import runner

    phases = {}
    open_frames = []  # [live, peak] of each wrapped call in progress
    loop_start = []

    def fold():
        # the traced peak since the last fold belongs to every open call
        peak = tracemalloc.get_traced_memory()[1]
        for frame in open_frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "pusher.step" and not loop_start:
                loop_start.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            frame = [0, 0]
            if traced:
                fold()
                frame = [tracemalloc.get_traced_memory()[0]] * 2
            open_frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                if traced:
                    fold()
                open_frames.pop()
                calls, peak, live = phases.get(name, (0, -1, 0))
                if frame[1] > peak:
                    peak, live = frame[1], frame[0]
                phases[name] = (calls + 1, peak, live)

        return wrapper

    saved = []
    for module, attr in PHASES:
        owner, name = _owner(module, attr)
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrap(f"{module}.{name}", getattr(owner, name)))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if traced:
                tracemalloc.start()
            try:
                runner.run(_scenario(params, seed), Path(tmp) / "run", seed=seed)
            finally:
                tracemalloc.stop()
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "loop_faults": usage.ru_minflt - loop_start[0] if loop_start else 0,
        "phases": phases,
    }


def _in_fresh_process(params, seed, traced):
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        return pool.submit(measure, params, seed, traced).result()


def main(argv=None):
    workloads = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED, help="the workloads' seed")
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    mib = 2.0**20
    for name, params in workloads.WORKLOADS.items():
        plain = _in_fresh_process(params, args.seed, traced=False)
        traced = _in_fresh_process(params, args.seed, traced=True)
        print(
            f"{name} (seed {args.seed}): ru_maxrss {plain['maxrss_mb']:.1f} MB, "
            f"{plain['loop_faults']} minor page faults in the loop"
        )
        print("| phase | calls | traced peak | live at start |")
        print("| --- | --- | --- | --- |")
        for module, attr in PHASES:
            phase = f"{module}.{attr.split('.')[-1]}"
            calls, peak, live = traced["phases"][phase]
            print(f"| {phase} | {calls} | {peak / mib:.1f} MiB | {live / mib:.1f} MiB |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
