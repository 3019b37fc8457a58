"""Loading and validation of JSON run configurations.

A configuration has five sections: problem (bodies, dimension, period,
masses), potential (interaction constants), discretization (harmonics and
quadrature grid), solver (descent and multistart controls), and output
(directory and orbit-grouping tolerances). Unknown sections or keys are
rejected rather than ignored, and every rejection message names the violated
requirement. Optional keys are materialized with their defaults so the
resolved form embedded in outputs is complete.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigInvalid
from .loopspace import _is_finite_real, default_grid_size
from .orbitfile import _json_integer, _read_json
from .potential import BLEND_HERMITE, PotentialSpec
from .solver import (
    ACTION_REL_TOL,
    DEFAULT_DIM,
    DEFAULT_HARMONICS,
    EL_RESIDUAL_TOL,
    PATH_TOL,
    SolveOptions,
    _require_valid_winding,
)

__all__ = ["RunConfig", "load_config", "config_from_dict", "resolved_dict"]

_SECTION_KEYS = {
    "problem": ("n_bodies", "dim", "period", "masses"),
    "potential": ("a", "g", "alpha", "theta", "r1", "r2", "modulation_eps", "blend"),
    "discretization": ("harmonics", "n_t"),
    "solver": (
        "max_iters",
        "grad_tol",
        "seed",
        "winding_classes",
        "starts_per_class",
        "step_guard",
        "history_len",
    ),
    "output": ("directory", "action_rel_tol", "path_tol", "el_residual_tol"),
}
_REQUIRED_SECTIONS = ("problem", "potential", "output")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration with all defaults filled in."""

    spec: PotentialSpec
    dim: int
    harmonics: int
    n_t: int
    options: SolveOptions
    winding_classes: tuple
    starts_per_class: int
    output_dir: str
    action_rel_tol: float
    path_tol: float
    el_residual_tol: float


def _section(data: dict, name: str) -> dict:
    if name not in data:
        if name in _REQUIRED_SECTIONS:
            raise ConfigInvalid(f"missing required section {name!r}")
        return {}
    sec = data[name]
    if not isinstance(sec, dict):
        raise ConfigInvalid(f"section {name!r} must be an object")
    for key in sec:
        if key not in _SECTION_KEYS[name]:
            raise ConfigInvalid(f"unknown key {key!r} in section {name!r}")
    return sec


def _number(sec: dict, section: str, key: str, default=None) -> float:
    if key not in sec:
        if default is None:
            raise ConfigInvalid(f"missing required key {key!r} in section {section!r}")
        return default
    return _finite(sec[key], f"{section}.{key}")


def _finite(value, name: str) -> float:
    """value as a float, or ConfigInvalid naming ``name``; json.load parses Infinity, NaN and huge integers."""
    if not _is_finite_real(value):
        raise ConfigInvalid(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _integer(sec: dict, section: str, key: str, default=None, minimum=None) -> int:
    if key not in sec:
        if default is None:
            raise ConfigInvalid(f"missing required key {key!r} in section {section!r}")
        value = default
    else:
        value = sec[key]
    if not _json_integer(value):
        raise ConfigInvalid(f"{section}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigInvalid(f"{section}.{key} must be >= {minimum}, got {value}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    """Validate a parsed configuration object and fill in defaults."""
    if not isinstance(data, dict):
        raise ConfigInvalid("configuration root must be an object")
    for key in data:
        if key not in _SECTION_KEYS:
            raise ConfigInvalid(f"unknown section {key!r}")

    problem = _section(data, "problem")
    potential = _section(data, "potential")
    discretization = _section(data, "discretization")
    solver = _section(data, "solver")
    output = _section(data, "output")

    n_bodies = _integer(problem, "problem", "n_bodies", minimum=1)
    dim = _integer(problem, "problem", "dim", default=DEFAULT_DIM, minimum=2)
    period = _number(problem, "problem", "period")
    masses = problem.get("masses")
    if masses is None:
        raise ConfigInvalid("missing required key 'masses' in section 'problem'")
    if not isinstance(masses, list):
        raise ConfigInvalid("problem.masses must be a list of numbers")
    masses = [_finite(m, f"problem.masses[{i}]") for i, m in enumerate(masses)]
    if len(masses) != n_bodies:
        raise ConfigInvalid(
            f"problem.masses must list exactly n_bodies = {n_bodies} masses, got {len(masses)}"
        )

    try:
        spec = PotentialSpec(
            masses=np.asarray(masses, dtype=float),
            a=_number(potential, "potential", "a"),
            g=_number(potential, "potential", "g"),
            alpha=_number(potential, "potential", "alpha"),
            theta=_number(potential, "potential", "theta"),
            r1=_number(potential, "potential", "r1"),
            r2=_number(potential, "potential", "r2"),
            modulation_eps=_number(potential, "potential", "modulation_eps", default=0.0),
            period=period,
            blend=potential.get("blend", BLEND_HERMITE),
        )
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None

    harmonics = _integer(
        discretization, "discretization", "harmonics", default=DEFAULT_HARMONICS, minimum=1
    )
    n_t_floor = 4 * harmonics + 1
    n_t = _integer(
        discretization, "discretization", "n_t", default=default_grid_size(harmonics), minimum=1
    )
    if n_t < n_t_floor:
        raise ConfigInvalid(
            f"discretization.n_t must be >= 4*harmonics + 1 = {n_t_floor} so the "
            f"quadrature resolves every retained harmonic; got {n_t}"
        )

    defaults = SolveOptions()
    try:
        options = SolveOptions(
            max_iters=_integer(solver, "solver", "max_iters", default=defaults.max_iters, minimum=1),
            grad_tol=_number(solver, "solver", "grad_tol", default=defaults.grad_tol),
            history_len=_integer(solver, "solver", "history_len", default=defaults.history_len, minimum=1),
            seed=_integer(solver, "solver", "seed", default=defaults.seed, minimum=0),
            step_guard=_number(solver, "solver", "step_guard", default=defaults.step_guard),
        )
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None

    winding = solver.get("winding_classes", [1])
    if not isinstance(winding, list) or not winding:
        raise ConfigInvalid("solver.winding_classes must be a non-empty list of odd integers")
    try:
        for w in winding:
            _require_valid_winding(w, harmonics)
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
    starts = _integer(solver, "solver", "starts_per_class", default=4, minimum=1)

    directory = output.get("directory")
    if not isinstance(directory, str) or not directory:
        raise ConfigInvalid("output.directory must be a non-empty string")
    action_rel_tol = _number(output, "output", "action_rel_tol", default=ACTION_REL_TOL)
    path_tol = _number(output, "output", "path_tol", default=PATH_TOL)
    el_residual_tol = _number(output, "output", "el_residual_tol", default=EL_RESIDUAL_TOL)
    for name, value in (
        ("action_rel_tol", action_rel_tol),
        ("path_tol", path_tol),
        ("el_residual_tol", el_residual_tol),
    ):
        if not value > 0:
            raise ConfigInvalid(f"output.{name} must be positive, got {value}")

    return RunConfig(
        spec=spec,
        dim=dim,
        harmonics=harmonics,
        n_t=n_t,
        options=options,
        winding_classes=tuple(int(w) for w in winding),
        starts_per_class=starts,
        output_dir=directory,
        action_rel_tol=action_rel_tol,
        path_tol=path_tol,
        el_residual_tol=el_residual_tol,
    )


def load_config(path) -> RunConfig:
    """Read, parse, and validate a JSON configuration file."""
    return config_from_dict(_read_json(path, ConfigInvalid, "config"))


def resolved_dict(cfg: RunConfig) -> dict:
    """The configuration with every default materialized, in the key order of _SECTION_KEYS."""
    spec = cfg.spec
    flat = {
        **asdict(spec),
        **asdict(cfg.options),
        **asdict(cfg),
        "n_bodies": spec.n_bodies,
        "masses": [float(m) for m in spec.masses],
        "winding_classes": list(cfg.winding_classes),
        "directory": cfg.output_dir,
    }
    return {section: {key: flat[key] for key in keys} for section, keys in _SECTION_KEYS.items()}
