"""The benchmark's workloads: scenario shapes, the default seed and why each exists.

A workload is a plain dict of scenario parameters. The child process turns it
into a ``vpme.config.ScenarioConfig``; the seed is applied there, so the
program only ever sees the generated scenario.

All workloads share the acceptance suite's physics: a unit Gaussian
background and unit Gaussian Maxwellian ions (sigma = 1) on the box
[-4, 4]^3 with dt = 0.005. They differ in the ion count, the mesh, eps and
how often diagnostics and snapshots are taken, which moves the time between
the field solve and the particle/diagnostics layers.
"""

# the acceptance suite's BASE_SEED; --seed replaces it
DEFAULT_SEED = 1234

COMMON = {
    "half_width": 4.0,
    "dt": 0.005,
    "sigma": 1.0,
    "m1": 2.5,
    "omega": 0.25,
    "max_escaped_frac": 0.05,
    "save_fields": True,
}

WORKLOADS = {
    # the acceptance baseline scenario (tests/conftest.py::make_scenario),
    # cut to 5 steps so that several runs fit in one measurement; the
    # electron solve dominates, much of it DST-I at the prime length 47
    "baseline": dict(
        COMMON, count=100_000, nodes=48, epsilon=0.5, steps=5,
        checkpoint_every=5,
    ),
    # particle-heavy: kernels, the per-checkpoint current deposit,
    # diagnostics and snapshot writes dominate; the solve is a few percent
    "dense-ions": dict(
        COMMON, count=400_000, nodes=24, epsilon=0.5, steps=3,
        checkpoint_every=1,
    ),
    # the paper's regime: 1/eps^2 = 100, screening-guess cold start and
    # about twice the Newton steps of baseline per warm solve
    "quasi-neutral": dict(
        COMMON, count=20_000, nodes=32, epsilon=0.1, steps=6,
        checkpoint_every=2,
    ),
}

# the same code paths on tiny shapes, for the smoke mode
SMOKE = {
    "baseline": dict(WORKLOADS["baseline"], count=2_000, nodes=16, steps=3, checkpoint_every=2),
    "dense-ions": dict(WORKLOADS["dense-ions"], count=4_000, nodes=12, steps=2),
    "quasi-neutral": dict(WORKLOADS["quasi-neutral"], count=2_000, nodes=16, steps=3, checkpoint_every=2),
}


def checkpoint_steps(params):
    """Steps at which the runner records diagnostics and writes snapshots."""
    steps, every = params["steps"], params["checkpoint_every"]
    return [0] + [n for n in range(1, steps + 1) if n % every == 0 or n == steps]
