import inspect
import json
import re

import pytest

from orbitact.errors import ConfigInvalid
from orbitact.runconfig import config_from_dict, load_config, resolved_dict
from orbitact.solver import multistart


def minimal_config(**edits):
    data = {
        "problem": {"n_bodies": 2, "period": 6.283185307179586, "masses": [1.0, 1.0]},
        "potential": {"a": 1.0, "g": 0.01, "alpha": 2.0, "theta": 1.0, "r1": 2.0, "r2": 3.0},
        "output": {"directory": "out"},
    }
    for dotted, value in edits.items():
        section, key = dotted.split(".")
        data.setdefault(section, {})[key] = value
    return data


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(minimal_config())
    assert cfg.dim == 2
    assert cfg.harmonics == 8
    assert cfg.n_t == 41
    assert cfg.winding_classes == (1,)
    assert cfg.starts_per_class == 4
    assert cfg.options.max_iters == 500
    assert cfg.options.grad_tol == 1e-9
    assert cfg.options.seed == 0
    assert cfg.options.step_guard == 0.5
    assert cfg.options.history_len == 10
    assert cfg.spec.modulation_eps == 0.0
    assert cfg.spec.blend == "hermite"
    assert cfg.action_rel_tol == 1e-6
    assert cfg.path_tol == 0.5
    assert cfg.el_residual_tol == 1e-7
    assert cfg.output_dir == "out"


def test_omitted_dim_and_harmonics_take_multistart_defaults():
    data = minimal_config()
    assert "dim" not in data["problem"] and "discretization" not in data
    defaults = inspect.signature(multistart).parameters
    cfg = config_from_dict(data)
    assert cfg.dim == defaults["dim"].default
    assert cfg.harmonics == defaults["harmonics"].default


def test_unknown_section_and_key_are_named():
    with pytest.raises(ConfigInvalid, match="extras"):
        config_from_dict({**minimal_config(), "extras": {}})
    with pytest.raises(ConfigInvalid, match="tail_taper"):
        config_from_dict(minimal_config(**{"potential.tail_taper": 1.0}))


def test_missing_sections_and_keys_are_named():
    data = minimal_config()
    del data["output"]
    with pytest.raises(ConfigInvalid, match="output"):
        config_from_dict(data)
    data = minimal_config()
    del data["potential"]["theta"]
    with pytest.raises(ConfigInvalid, match="theta"):
        config_from_dict(data)
    data = minimal_config()
    del data["problem"]["masses"]
    with pytest.raises(ConfigInvalid, match="masses"):
        config_from_dict(data)


def test_hypothesis_violations_surface_in_messages():
    with pytest.raises(ConfigInvalid, match="theta < 2"):
        config_from_dict(minimal_config(**{"potential.theta": 2.5}))
    with pytest.raises(ConfigInvalid, match="alpha >= 2"):
        config_from_dict(minimal_config(**{"potential.alpha": 1.0}))
    with pytest.raises(ConfigInvalid, match="step_guard"):
        config_from_dict(minimal_config(**{"solver.step_guard": 1.5}))


def test_winding_classes_validated():
    with pytest.raises(ConfigInvalid, match="odd"):
        config_from_dict(minimal_config(**{"solver.winding_classes": [2]}))
    with pytest.raises(ConfigInvalid):
        config_from_dict(minimal_config(**{"solver.winding_classes": []}))
    # winding 17 needs 9 harmonics but the default is 8
    with pytest.raises(ConfigInvalid, match="17"):
        config_from_dict(minimal_config(**{"solver.winding_classes": [17]}))
    cfg = config_from_dict(
        minimal_config(**{"solver.winding_classes": [17], "discretization.harmonics": 9})
    )
    assert cfg.winding_classes == (17,)


def test_quadrature_floor_enforced_with_explanation():
    with pytest.raises(ConfigInvalid, match="4\\*harmonics \\+ 1"):
        config_from_dict(minimal_config(**{"discretization.n_t": 16}))
    cfg = config_from_dict(
        minimal_config(**{"discretization.harmonics": 4, "discretization.n_t": 17})
    )
    assert cfg.n_t == 17


def test_types_are_strict():
    with pytest.raises(ConfigInvalid, match="number"):
        config_from_dict(minimal_config(**{"potential.a": True}))
    with pytest.raises(ConfigInvalid, match="integer"):
        config_from_dict(minimal_config(**{"discretization.harmonics": 8.0}))
    with pytest.raises(ConfigInvalid, match="masses"):
        config_from_dict(minimal_config(**{"problem.masses": [1.0, "heavy"]}))
    with pytest.raises(ConfigInvalid, match="directory"):
        config_from_dict(minimal_config(**{"output.directory": ""}))


@pytest.mark.parametrize(
    "value", [float("inf"), float("-inf"), float("nan"), 10**400], ids=["inf", "-inf", "nan", "huge-int"]
)
def test_non_finite_numbers_are_rejected_by_key(value):
    # json.load parses Infinity and NaN, so they reach the validator
    for dotted, edit, key in (
        ("potential.r2", value, "potential.r2"),
        ("solver.grad_tol", value, "solver.grad_tol"),
        ("problem.masses", [1.0, value], "problem.masses[1]"),
    ):
        with pytest.raises(ConfigInvalid, match=re.escape(f"{key} must be a finite number")):
            config_from_dict(minimal_config(**{dotted: edit}))


def test_mass_count_must_match_bodies():
    with pytest.raises(ConfigInvalid, match="n_bodies"):
        config_from_dict(minimal_config(**{"problem.masses": [1.0, 1.0, 1.0]}))


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigInvalid, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigInvalid, match="not valid JSON"):
        load_config(bad)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_config()), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.spec.n_bodies == 2


def test_resolved_dict_is_a_fixed_point():
    cfg = config_from_dict(minimal_config())
    resolved = resolved_dict(cfg)
    again = resolved_dict(config_from_dict(resolved))
    assert again == resolved
    # canonical section order for byte-stable embedding in outputs
    assert list(resolved.keys()) == ["problem", "potential", "discretization", "solver", "output"]
    json.dumps(resolved, allow_nan=False)
