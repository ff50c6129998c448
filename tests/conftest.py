"""Shared scenario builders and session-scoped run fixtures.

The expensive fixtures execute full scenarios once per session and hand the
parsed artifacts to every test that needs them; unit-test modules never
trigger them.
"""

import json
from types import SimpleNamespace

import pytest

from vpme import diagnostics, runner
from vpme.config import ScenarioConfig
from vpme.mesh import GridSpec
from vpme.particles import InitialDistributionSpec
from vpme.profiles import SpatialProfile
from vpme.pusher import TimeSpec

UNIT_GAUSSIAN = SpatialProfile(kind="gaussian", scale=1.0, center=(0.0, 0.0, 0.0))
BASE_SEED = 1234

# acceptance verdict lines, echoed after the run summary (test_acceptance.py)
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


def make_scenario(**over):
    """Baseline acceptance scenario with keyword overrides."""
    fields = dict(
        grid=GridSpec(half_width=4.0, nodes=48),
        epsilon=0.5,
        time=TimeSpec(dt=0.005, t_end=1.0, checkpoint_every=20),
        count=100_000,
        init=InitialDistributionSpec(kind="maxwellian", spatial=UNIT_GAUSSIAN, sigma=1.0),
        drift=(0.0, 0.0, 0.0),
        g_profile=UNIT_GAUSSIAN,
        field_mode="selfconsistent",
        seed=BASE_SEED,
        omega=0.25,
        max_escaped_frac=0.05,
        save_fields=False,
    )
    fields.update(over)
    return ScenarioConfig(**fields)


def small_scenario(**over):
    """Cheap variant for plumbing tests (seconds, not minutes)."""
    defaults = dict(
        grid=GridSpec(half_width=4.0, nodes=16),
        time=TimeSpec(dt=0.01, t_end=0.12, checkpoint_every=1),
        count=2000,
    )
    defaults.update(over)
    return make_scenario(**defaults)


def load_run(path):
    series = diagnostics.read_timeseries(path / runner.TIMESERIES_NAME)
    fields = diagnostics.read_table(path / runner.FIELD_TABLE_NAME, diagnostics.FIELD_COLUMNS)
    with open(path / runner.META_NAME, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    return SimpleNamespace(dir=path, series=series, fields=fields, meta=meta)


def _execute(cfg, out_dir):
    runner.run(cfg, out_dir)
    return load_run(out_dir)


@pytest.fixture(scope="session")
def baseline_run(tmp_path_factory):
    return _execute(make_scenario(), tmp_path_factory.mktemp("baseline"))


@pytest.fixture(scope="session")
def baseline_double_dt_run(tmp_path_factory):
    cfg = make_scenario(time=TimeSpec(dt=0.01, t_end=1.0, checkpoint_every=10))
    return _execute(cfg, tmp_path_factory.mktemp("baseline_double_dt"))


@pytest.fixture(scope="session")
def powerlaw_run(tmp_path_factory):
    cfg = make_scenario(
        init=InitialDistributionSpec(kind="power_law", spatial=UNIT_GAUSSIAN, r=4.0, v_max=20.0),
        max_escaped_frac=0.9,
    )
    return _execute(cfg, tmp_path_factory.mktemp("powerlaw"))


@pytest.fixture(scope="session")
def equilibrium_run(tmp_path_factory):
    cfg = make_scenario(count=0, init=InitialDistributionSpec(kind="cold_lattice"))
    return _execute(cfg, tmp_path_factory.mktemp("equilibrium"))


@pytest.fixture(scope="session")
def freestream_run(tmp_path_factory):
    return _execute(make_scenario(field_mode="off"), tmp_path_factory.mktemp("freestream"))


@pytest.fixture(scope="session")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    runner.sweep(make_scenario(), [1.0, 0.7, 0.5], out)
    return out
