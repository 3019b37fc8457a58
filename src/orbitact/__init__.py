"""Action minimization for antiperiodic N-body loops under strong-force potentials.

The package finds periodic orbits of N-body systems with short-range
singular attraction, a sub-quadratic long-range tail, and optional
half-period time modulation, by minimizing the classical action over loops
that reverse sign after half a period. Submodules: loopspace (Fourier loop
representation), potential (interaction profile and witnesses), action
(value and exact gradient), solver (descent and multistart), verify
(residuals, inequality ledger, coercivity), runconfig / orbitfile / cli
(external interfaces).

The configuration names (RunConfig, load_config, config_from_dict,
resolved_dict) load runconfig, and with it json, on first use, so a search
that reads no configuration file does not pay for them.
"""

from .action import ActionEvaluation, action, action_value
from .errors import (
    CollisionSample,
    ConfigInvalid,
    GridTooCoarse,
    InvalidStart,
    NonPositiveSeparation,
    OrbitactError,
    OrbitFileInvalid,
    OutOfWitnessRange,
    SelfPair,
    ShapeMismatch,
    SingleBody,
    ThetaOutOfRange,
)
from .loopspace import (
    LoopBatch,
    LoopConfiguration,
    default_grid_size,
    evaluate_positions,
    h1_distance,
    harmonic_energies,
    kinetic_energy,
    sample_acceleration,
    sample_trajectory,
    shift_loop,
)
from .potential import (
    BLEND_HERMITE,
    BLEND_LINEAR,
    PotentialSpec,
    StrongForceWitness,
    grid_potential,
    pair_potential,
    strong_force_margin,
    strong_force_witness,
    time_modulation,
)
from .solver import (
    MultistartResult,
    OrbitRecord,
    SolveOptions,
    SolveReport,
    SolveStatus,
    StartReport,
    circular_seed,
    dedupe,
    descend,
    multistart,
    resolve_workers,
)
from .verify import (
    BlowupProbe,
    LedgerCheck,
    LedgerReport,
    check_blend_c1,
    check_holder_bound,
    check_modulation_symmetry,
    check_pairwise_identity,
    check_wirtinger,
    coercivity_bound,
    coercivity_constants,
    collision_blowup_probe,
    euler_lagrange_residual,
    run_inequality_ledger,
    solve_energy_bound,
    wirtinger_kinetic_side,
)
from .version import __version__

__all__ = [
    "__version__",
    # loop representation
    "LoopConfiguration",
    "LoopBatch",
    "default_grid_size",
    "sample_trajectory",
    "sample_acceleration",
    "evaluate_positions",
    "harmonic_energies",
    "kinetic_energy",
    "h1_distance",
    "shift_loop",
    # potential
    "PotentialSpec",
    "BLEND_HERMITE",
    "BLEND_LINEAR",
    "time_modulation",
    "pair_potential",
    "grid_potential",
    "StrongForceWitness",
    "strong_force_witness",
    "strong_force_margin",
    # action
    "ActionEvaluation",
    "action",
    "action_value",
    # solver
    "SolveStatus",
    "SolveOptions",
    "SolveReport",
    "descend",
    "OrbitRecord",
    "StartReport",
    "MultistartResult",
    "multistart",
    "dedupe",
    "circular_seed",
    "resolve_workers",
    # verification
    "euler_lagrange_residual",
    "check_pairwise_identity",
    "check_holder_bound",
    "check_wirtinger",
    "wirtinger_kinetic_side",
    "check_modulation_symmetry",
    "check_blend_c1",
    "solve_energy_bound",
    "coercivity_constants",
    "coercivity_bound",
    "BlowupProbe",
    "collision_blowup_probe",
    "LedgerCheck",
    "LedgerReport",
    "run_inequality_ledger",
    # configuration and files
    "RunConfig",
    "load_config",
    "config_from_dict",
    "resolved_dict",
    # errors
    "OrbitactError",
    "GridTooCoarse",
    "SingleBody",
    "ShapeMismatch",
    "NonPositiveSeparation",
    "SelfPair",
    "CollisionSample",
    "OutOfWitnessRange",
    "ThetaOutOfRange",
    "InvalidStart",
    "ConfigInvalid",
    "OrbitFileInvalid",
]


_CONFIG_NAMES = frozenset({"RunConfig", "load_config", "config_from_dict", "resolved_dict"})


def __getattr__(name):
    if name in _CONFIG_NAMES:
        from . import runconfig

        return getattr(runconfig, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
