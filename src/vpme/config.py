"""Scenario configuration: INI files in, validated dataclass out.

Sections and keys (defaults in parentheses):

  [grid]        half_width, nodes
  [field]       epsilon, mode = selfconsistent | off (selfconsistent)
  [time]        dt, t_end, checkpoint_every (100)
  [particles]   kind = maxwellian | power_law | cold_lattice, count,
                profile, profile_scale, profile_center (0 0 0),
                sigma (1.0), r (4.0), v_max (20.0), m1 (2.5),
                drift (0 0 0; uniform velocity offset added to every kind)
  [background]  profile = gaussian | uniform_ball, profile_scale,
                profile_center (0 0 0)
  [diagnostics] save_fields (false)
  [run]         seed (0), omega (0.25), max_escaped_frac (0.001)

The canonical echo (canonical_text) regenerates a normalized INI from the
validated values; its SHA-256 is the scenario hash recorded in metadata and
reports.
"""

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

from .mesh import GridSpec
from .particles import InitialDistributionSpec
from .profiles import SpatialProfile
from .pusher import TimeSpec

FIELD_MODES = ("selfconsistent", "off")
# accepted aliases for the power-law tail kind
_KIND_ALIASES = {
    "maxwellian": "maxwellian",
    "power_law": "power_law",
    "power-law-decay": "power_law",
    "cold_lattice": "cold_lattice",
}
BOX_MASS_TOL = 1e-6


class ConfigError(ValueError):
    """A scenario file is missing, malformed, or out of range."""


@dataclass(frozen=True)
class ScenarioConfig:
    grid: GridSpec
    epsilon: float
    time: TimeSpec
    count: int
    init: InitialDistributionSpec
    drift: tuple
    g_profile: SpatialProfile
    field_mode: str
    seed: int
    omega: float
    max_escaped_frac: float
    save_fields: bool

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (0.0 < self.omega < 1.0):
            raise ConfigError(f"omega must lie in (0, 1), got {self.omega}")
        if self.field_mode not in FIELD_MODES:
            raise ConfigError(f"field mode must be one of {FIELD_MODES}, got {self.field_mode!r}")
        if self.init.kind != "cold_lattice" and self.count < 1:
            raise ConfigError(f"particle count must be >= 1, got {self.count}")
        if not (0.0 < self.max_escaped_frac < 1.0):
            raise ConfigError(
                f"max_escaped_frac must lie in (0, 1), got {self.max_escaped_frac}"
            )
        if len(self.drift) != 3 or not all(math.isfinite(c) for c in self.drift):
            raise ConfigError(f"drift must be 3 finite components, got {self.drift!r}")

    def with_epsilon(self, epsilon):
        return replace(self, epsilon=epsilon)

    def with_seed(self, seed):
        return replace(self, seed=seed)

    def box_mass_warnings(self):
        """Initial mass sitting outside the box, per profile (advisory only)."""
        notes = []
        checks = [("background", self.g_profile)]
        if self.init.spatial is not None:
            checks.append(("ion spatial profile", self.init.spatial))
        for label, prof in checks:
            outside = prof.mass_outside_box(self.grid.half_width)
            if outside > BOX_MASS_TOL:
                notes.append(
                    f"{label} places {outside:.3e} of its mass outside the box "
                    f"(advisory threshold {BOX_MASS_TOL})"
                )
        return notes

    def canonical_text(self):
        i = self.init
        lines = [
            "[grid]",
            f"half_width = {self.grid.half_width!r}",
            f"nodes = {self.grid.nodes}",
            "",
            "[field]",
            f"epsilon = {self.epsilon!r}",
            f"mode = {self.field_mode}",
            "",
            "[time]",
            f"dt = {self.time.dt!r}",
            f"t_end = {self.time.t_end!r}",
            f"checkpoint_every = {self.time.checkpoint_every}",
            "",
            "[particles]",
            f"kind = {i.kind}",
            f"count = {self.count}",
        ]
        if i.spatial is not None:
            lines += [
                f"profile = {i.spatial.kind}",
                f"profile_scale = {i.spatial.scale!r}",
                f"profile_center = {_fmt_vec(i.spatial.center)}",
            ]
        lines += [
            f"sigma = {i.sigma!r}",
            f"r = {i.r!r}",
            f"v_max = {i.v_max!r}",
            f"m1 = {i.m1!r}",
            f"drift = {_fmt_vec(self.drift)}",
            "",
            "[background]",
            f"profile = {self.g_profile.kind}",
            f"profile_scale = {self.g_profile.scale!r}",
            f"profile_center = {_fmt_vec(self.g_profile.center)}",
            "",
            "[diagnostics]",
            f"save_fields = {str(self.save_fields).lower()}",
            "",
            "[run]",
            f"seed = {self.seed}",
            f"omega = {self.omega!r}",
            f"max_escaped_frac = {self.max_escaped_frac!r}",
        ]
        return "\n".join(lines) + "\n"

    def scenario_hash(self):
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def _fmt_vec(v):
    return " ".join(repr(float(c)) for c in v)


def _parse_vec(text, where):
    parts = text.split()
    if len(parts) != 3:
        raise ConfigError(f"{where}: expected 3 components, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


class _Section:
    """Typed accessors over one INI section with config-flavored errors."""

    def __init__(self, parser, name):
        self.name = name
        self.sec = parser[name] if parser.has_section(name) else {}

    def _get(self, key, cast, default):
        raw = self.sec.get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
            return default
        try:
            return cast(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: {exc}") from exc

    def flt(self, key, default=None):
        return self._get(key, float, _REQUIRED if default is None else default)

    def integer(self, key, default=None):
        return self._get(key, int, _REQUIRED if default is None else default)

    def text(self, key, default=None):
        return self._get(key, str.strip, _REQUIRED if default is None else default)

    def vec(self, key, default):
        return self._get(key, lambda s: _parse_vec(s, f"[{self.name}] {key}"), default)

    def boolean(self, key, default):
        raw = self.sec.get(key)
        if raw is None:
            return default
        val = raw.strip().lower()
        if val in ("1", "true", "yes", "on"):
            return True
        if val in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key}: not a boolean: {raw!r}")


_REQUIRED = object()


def _profile_from(sec):
    kind = sec.text("profile")
    try:
        return SpatialProfile(
            kind=kind,
            scale=sec.flt("profile_scale"),
            center=sec.vec("profile_center", (0.0, 0.0, 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}]: {exc}") from exc


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    grid_sec = _Section(parser, "grid")
    field_sec = _Section(parser, "field")
    time_sec = _Section(parser, "time")
    part_sec = _Section(parser, "particles")
    bg_sec = _Section(parser, "background")
    diag_sec = _Section(parser, "diagnostics")
    run_sec = _Section(parser, "run")

    try:
        grid = GridSpec(half_width=grid_sec.flt("half_width"), nodes=grid_sec.integer("nodes"))
        time = TimeSpec(
            dt=time_sec.flt("dt"),
            t_end=time_sec.flt("t_end"),
            checkpoint_every=time_sec.integer("checkpoint_every", 100),
        )
        raw_kind = part_sec.text("kind")
        kind = _KIND_ALIASES.get(raw_kind)
        if kind is None:
            raise ConfigError(
                f"[particles] kind: unknown kind {raw_kind!r}, "
                f"expected one of {sorted(set(_KIND_ALIASES))}"
            )
        spatial = None
        if kind != "cold_lattice":
            spatial = _profile_from(part_sec)
        init = InitialDistributionSpec(
            kind=kind,
            spatial=spatial,
            sigma=part_sec.flt("sigma", 1.0),
            r=part_sec.flt("r", 4.0),
            v_max=part_sec.flt("v_max", 20.0),
            m1=part_sec.flt("m1", 2.5),
        )
        return ScenarioConfig(
            grid=grid,
            epsilon=field_sec.flt("epsilon"),
            time=time,
            count=part_sec.integer("count", 0 if kind == "cold_lattice" else None),
            init=init,
            drift=part_sec.vec("drift", (0.0, 0.0, 0.0)),
            g_profile=_profile_from(bg_sec),
            field_mode=field_sec.text("mode", "selfconsistent"),
            seed=run_sec.integer("seed", 0),
            omega=run_sec.flt("omega", 0.25),
            max_escaped_frac=run_sec.flt("max_escaped_frac", 1e-3),
            save_fields=diag_sec.boolean("save_fields", False),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
