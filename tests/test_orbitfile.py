import json

import numpy as np
import pytest

from conftest import make_spec, pair_circle
from orbitact.errors import OrbitFileInvalid
from orbitact.loopspace import evaluate_positions
from orbitact.orbitfile import (
    ORBIT_FORMAT,
    canonical_dumps,
    export_trajectory,
    load_orbit,
    orbit_payload,
    save_canonical,
)
from orbitact.runconfig import config_from_dict, resolved_dict
from orbitact.solver import OrbitRecord


def sample_record():
    loop = pair_circle(0.7071, harmonics=2)
    return OrbitRecord(
        loop=loop,
        action_value=6.283185307179586,
        kinetic=3.141592653589793,
        grad_norm=1e-12,
        el_residual=3e-15,
        winding_seed_class=1,
        start_index=2,
        dedup_key="0123456789abcdef",
    )


def sample_config():
    return resolved_dict(
        config_from_dict(
            {
                "problem": {"n_bodies": 2, "period": 6.283185307179586, "masses": [1.0, 1.0]},
                "potential": {"a": 1.0, "g": 0.01, "alpha": 2.0, "theta": 1.0, "r1": 2.0, "r2": 3.0},
                "output": {"directory": "out"},
            }
        )
    )


def test_payload_shape():
    payload = orbit_payload(sample_record(), sample_config())
    assert payload["format"] == ORBIT_FORMAT
    assert set(payload) == {"format", "meta", "loop", "diagnostics"}
    assert set(payload["meta"]) == {"tool_version", "resolved_config"}
    assert payload["loop"]["N"] == 2
    assert payload["loop"]["k"] == 2
    assert payload["loop"]["M"] == 2
    assert payload["loop"]["T"] == 6.283185307179586
    assert len(payload["loop"]["coefficients"]) == 2 * 2 * 2 * 2
    diag = payload["diagnostics"]
    assert diag["action"] == 6.283185307179586
    assert diag["winding_seed_class"] == 1
    assert diag["el_residual"] == 3e-15
    assert diag["dedup_key"] == "0123456789abcdef"


def test_round_trip_bytes_and_coefficients(tmp_path):
    record = sample_record()
    payload = orbit_payload(record, sample_config())
    path = tmp_path / "orbit_000.json"
    save_canonical(path, payload)

    loaded_payload, loop = load_orbit(path)
    assert np.array_equal(loop.coefficients, record.loop.coefficients)
    assert loop.period == record.loop.period
    # re-serializing the loaded payload reproduces the file byte for byte
    assert canonical_dumps(loaded_payload) == path.read_text(encoding="utf-8")


def test_canonical_dumps_uses_shortest_round_trip_floats():
    text = canonical_dumps({"x": 0.1, "y": 1.0 / 3.0})
    assert '"x": 0.1' in text
    assert "0.3333333333333333" in text
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})


def test_load_rejects_malformed_files(tmp_path):
    record = sample_record()
    good = orbit_payload(record, sample_config())

    def write(mutate):
        payload = json.loads(canonical_dumps(good))
        mutate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    cases = [
        lambda p: p.update(format="other.format/9"),
        lambda p: p.pop("meta"),
        lambda p: p.pop("loop"),
        lambda p: p["loop"].update(N=0),
        lambda p: p["loop"].update(T=-1.0),
        lambda p: p["loop"].update(T=float("inf")),
        lambda p: p["loop"].update(T=10**400),
        lambda p: p["loop"].update(coefficients=p["loop"]["coefficients"][:-1]),
        lambda p: p["loop"].update(coefficients="zeros"),
        lambda p: p["loop"].__setitem__("coefficients", [float("nan")] * 16),
        lambda p: p["loop"]["coefficients"].__setitem__(0, -(10**400)),
    ]
    for mutate in cases:
        with pytest.raises(OrbitFileInvalid):
            load_orbit(write(mutate))
    with pytest.raises(OrbitFileInvalid):
        load_orbit(tmp_path / "absent.json")
    not_json = tmp_path / "not.json"
    not_json.write_text("[1, 2", encoding="utf-8")
    with pytest.raises(OrbitFileInvalid):
        load_orbit(not_json)
    for name, content, message in (
        ("utf16.json", b"\xff\xfe{}", "not valid JSON"),
        ("deep.json", b"[" * 100000, "nests too deeply"),
    ):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(OrbitFileInvalid, match=message) as excinfo:
            load_orbit(path)
        assert str(path) in str(excinfo.value)


def test_export_trajectory_samples_and_antiperiodicity(tmp_path):
    record = sample_record()
    path = tmp_path / "orbit_000.json"
    save_canonical(path, orbit_payload(record, sample_config()))

    out = export_trajectory(path, n_samples=8)
    assert out == tmp_path / "orbit_000.csv"
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "t[time],x1_1[length],x1_2[length],x2_1[length],x2_2[length]"
    assert len(lines) == 9

    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    period = record.loop.period
    assert np.allclose(rows[:, 0], np.arange(8) * period / 8, atol=1e-12)
    # row at t matches direct evaluation
    want = evaluate_positions(record.loop, rows[:, 0])
    assert np.abs(rows[:, 1:].reshape(8, 2, 2) - want).max() < 1e-12
    # antiperiodicity: the row half a period later is the negation
    assert np.abs(rows[4:, 1:] + rows[:4, 1:]).max() < 1e-10


def test_export_trajectory_custom_target_and_validation(tmp_path):
    record = sample_record()
    path = tmp_path / "orbit_000.json"
    save_canonical(path, orbit_payload(record, sample_config()))
    target = tmp_path / "custom.csv"
    assert export_trajectory(path, target, n_samples=1) == target
    assert target.read_text(encoding="utf-8").count("\n") == 2
    with pytest.raises(ValueError):
        export_trajectory(path, n_samples=0)


@pytest.mark.parametrize("n_samples", [True, False, 2.5, 8.0, "8", None])
def test_export_trajectory_refuses_non_integer_counts(tmp_path, n_samples):
    # True wrote one row and 2.5 died with a bare TypeError from range
    path = tmp_path / "orbit_000.json"
    save_canonical(path, orbit_payload(sample_record(), sample_config()))
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        export_trajectory(path, n_samples=n_samples)
    assert not (tmp_path / "orbit_000.csv").exists()


def test_export_trajectory_takes_numpy_integer_counts(tmp_path):
    path = tmp_path / "orbit_000.json"
    save_canonical(path, orbit_payload(sample_record(), sample_config()))
    out = export_trajectory(path, n_samples=np.int64(4))
    assert out.read_text(encoding="utf-8").count("\n") == 5
