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
from functools import partial

from .mesh import GridSpec
from .particles import INIT_KINDS, InitialDistributionSpec
from .profiles import SpatialProfile
from .pusher import TimeSpec

FIELD_MODES = ("selfconsistent", "off")
# the accepted alias of a particles.INIT_KINDS name
_KIND_ALIASES = {"power-law-decay": "power_law"}
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


def _parse_vec(text):
    parts = text.split()
    if len(parts) != 3:
        raise ValueError(f"expected 3 components, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_bool(text):
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_REQUIRED = object()


def _read(parser, section, key, parse=float, default=_REQUIRED):
    """``parse`` of ``[section] key``, or ``default`` when the key or section is absent.

    A missing required key and a ValueError from ``parse`` become a
    ConfigError naming the section and key.
    """
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _profile_from(parser, section):
    get = partial(_read, parser, section)
    kind = get("profile", str.strip)
    scale = get("profile_scale")
    center = get("profile_center", _parse_vec, (0.0, 0.0, 0.0))
    try:
        return SpatialProfile(kind=kind, scale=scale, center=center)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    get = partial(_read, parser)
    try:
        grid = GridSpec(half_width=get("grid", "half_width"), nodes=get("grid", "nodes", int))
        time = TimeSpec(
            dt=get("time", "dt"),
            t_end=get("time", "t_end"),
            checkpoint_every=get("time", "checkpoint_every", int, 100),
        )
        raw_kind = get("particles", "kind", str.strip)
        kind = _KIND_ALIASES.get(raw_kind, raw_kind)
        if kind not in INIT_KINDS:
            raise ConfigError(
                f"[particles] kind: unknown kind {raw_kind!r}, "
                f"expected one of {sorted([*INIT_KINDS, *_KIND_ALIASES])}"
            )
        spatial = None
        if kind != "cold_lattice":
            spatial = _profile_from(parser, "particles")
        init = InitialDistributionSpec(
            kind=kind,
            spatial=spatial,
            sigma=get("particles", "sigma", float, 1.0),
            r=get("particles", "r", float, 4.0),
            v_max=get("particles", "v_max", float, 20.0),
            m1=get("particles", "m1", float, 2.5),
        )
        return ScenarioConfig(
            grid=grid,
            epsilon=get("field", "epsilon"),
            time=time,
            count=get("particles", "count", int, 0 if kind == "cold_lattice" else _REQUIRED),
            init=init,
            drift=get("particles", "drift", _parse_vec, (0.0, 0.0, 0.0)),
            g_profile=_profile_from(parser, "background"),
            field_mode=get("field", "mode", str.strip, "selfconsistent"),
            seed=get("run", "seed", int, 0),
            omega=get("run", "omega", float, 0.25),
            max_escaped_frac=get("run", "max_escaped_frac", float, 1e-3),
            save_fields=get("diagnostics", "save_fields", _parse_bool, False),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
