"""vpme: particle-mesh simulation of ions coupled to massless thermal electrons.

Ions advance along characteristics of the Vlasov equation; the electric
field comes from the nonlinear Poisson-Boltzmann equation
eps^2 Lap U = g e^U - rho on a truncated box, split into a linear ion part
and a negative electron correction. Every run records the conserved-energy
split, velocity-moment suprema, the field-integral supremum Q and realized
velocity deviation Q*, density norms, and solver audits; the verifier gates
the inequalities these quantities provably satisfy.
"""

__version__ = "0.1.0"

from .config import ConfigError, ScenarioConfig, load_config
from .fieldsolve import FieldSolveError, FieldSolution, solve_field, solve_ubar, solve_uhat
from .mesh import GridSpec, ScalarField, VectorField
from .particles import InitialDistributionSpec, ParticleEnsemble, sample_initial
from .profiles import SpatialProfile
from .pusher import TimeSpec
from .runner import EscapedMassError, run, sweep, verify_path

__all__ = [
    "ConfigError",
    "EscapedMassError",
    "FieldSolveError",
    "FieldSolution",
    "GridSpec",
    "InitialDistributionSpec",
    "ParticleEnsemble",
    "ScalarField",
    "ScenarioConfig",
    "SpatialProfile",
    "TimeSpec",
    "VectorField",
    "load_config",
    "run",
    "sample_initial",
    "solve_field",
    "solve_ubar",
    "solve_uhat",
    "sweep",
    "verify_path",
]
