"""Run one benchmark scenario in this (fresh) process and report its timings.

Usage: python3 child.py '<json spec>'

The spec holds the workload parameters, the seed, the output directory and
whether to trace. The result goes to ``result.json`` in that directory:
set-up time, run time, the time from the first step to the end and the
process's peak resident memory; a traced run also writes ``spans.json``.
numpy and scipy are imported before the clock starts; importing vpme is
part of the set-up time, so work moved to import time shows there.

A run that vpme aborts (a field-solve failure or the escaped-mass gate) is
reported as failed; any other error propagates and exits non-zero.
"""

import json
import resource
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (environment import, kept off the clock)
import scipy.fft  # noqa: F401

import spans


def _scenario(params, seed):
    from vpme.config import ScenarioConfig
    from vpme.mesh import GridSpec
    from vpme.particles import InitialDistributionSpec
    from vpme.profiles import SpatialProfile
    from vpme.pusher import TimeSpec

    unit = SpatialProfile(kind="gaussian", scale=1.0, center=(0.0, 0.0, 0.0))
    return ScenarioConfig(
        grid=GridSpec(half_width=params["half_width"], nodes=params["nodes"]),
        epsilon=params["epsilon"],
        time=TimeSpec(
            dt=params["dt"],
            t_end=params["steps"] * params["dt"],
            checkpoint_every=params["checkpoint_every"],
        ),
        count=params["count"],
        init=InitialDistributionSpec(
            kind="maxwellian", spatial=unit, sigma=params["sigma"], m1=params["m1"]
        ),
        drift=(0.0, 0.0, 0.0),
        g_profile=unit,
        field_mode="selfconsistent",
        seed=seed,
        omega=params["omega"],
        max_escaped_frac=params["max_escaped_frac"],
        save_fields=params["save_fields"],
    )


def main(spec):
    out_dir = Path(spec["out_dir"])
    t_import = time.perf_counter()
    from vpme import fieldsolve, kernels, pusher, runner

    import_s = time.perf_counter() - t_import
    cfg = _scenario(spec["params"], spec["seed"])

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()

    # the first call to pusher.step marks the end of set-up
    first_step = []
    step = pusher.step

    def timed_step(*args, **kwargs):
        if not first_step:
            first_step.append(time.perf_counter())
        return step(*args, **kwargs)

    pusher.step = timed_step

    result = {"backend": kernels.BACKEND, "status": "ok", "error": None}
    t0 = time.perf_counter()
    try:
        runner.run(cfg, out_dir / "run", seed=spec["seed"])
    except (fieldsolve.FieldSolveError, runner.EscapedMassError) as exc:
        result.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()

    started = first_step[0] if first_step else t1
    result.update(
        setup_s=import_s + started - t0,
        run_s=t1 - t0,
        loop_s=t1 - started,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.dump(out_dir / "spans.json")
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
