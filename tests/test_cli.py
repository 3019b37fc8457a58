import hashlib
import json

import numpy as np
import pytest

from orbitact import cli
from orbitact.cli import (
    EXIT_CHECKS_FAILED,
    EXIT_INVALID_INPUT,
    EXIT_NO_ORBITS,
    EXIT_OK,
    main,
)
from orbitact.orbitfile import load_orbit


def write_config(tmp_path, name="config.json", **edits):
    data = {
        "problem": {"n_bodies": 2, "period": 6.283185307179586, "masses": [1.0, 1.0]},
        "potential": {"a": 1.0, "g": 0.01, "alpha": 2.0, "theta": 1.0, "r1": 2.0, "r2": 3.0},
        "discretization": {"harmonics": 4},
        "solver": {"winding_classes": [1, 3], "starts_per_class": 2},
        "output": {"directory": str(tmp_path / "out")},
    }
    for dotted, value in edits.items():
        section, key = dotted.split(".")
        data.setdefault(section, {})[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def orbit_hashes(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted([*out_dir.glob("orbit_*.json"), out_dir / "summary.json"])
    }


def test_solve_writes_orbits_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", str(cfg)]) == EXIT_OK
    out_dir = tmp_path / "out"
    captured = capsys.readouterr()
    assert "kept orbits: 2" in captured.out
    assert "violations=0" in captured.out

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["format"] == "orbitact.summary/1"
    assert summary["n_started"] == 4
    assert summary["n_converged"] == 4
    assert len(summary["orbits"]) == 2
    assert summary["coercivity"]["violations"] == 0
    assert summary["resolved_config"]["solver"]["winding_classes"] == [1, 3]

    # orbit files load and agree with the summary rows
    for row in summary["orbits"]:
        payload, loop = load_orbit(out_dir / row["file"])
        assert payload["diagnostics"]["action"] == row["action"]
        assert loop.n_bodies == 2


def test_solve_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", str(cfg)]) == EXIT_OK
    first = orbit_hashes(tmp_path / "out")
    assert main(["solve", str(cfg)]) == EXIT_OK
    second = orbit_hashes(tmp_path / "out")
    assert first == second
    assert len(first) == 3  # two orbit files and the summary


def test_solve_parallel_env_matches_serial(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("ORBITACT_THREADS", "1")
    assert main(["solve", str(cfg)]) == EXIT_OK
    serial = orbit_hashes(tmp_path / "out")
    monkeypatch.setenv("ORBITACT_THREADS", "2")
    assert main(["solve", str(cfg)]) == EXIT_OK
    parallel = orbit_hashes(tmp_path / "out")
    assert serial == parallel


def test_solve_invalid_config_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"potential.theta": 2.5})
    assert main(["solve", str(cfg)]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith("error:")
    assert main(["solve", str(tmp_path / "missing.json")]) == EXIT_INVALID_INPUT


def test_infinity_literal_in_config_exits_invalid(tmp_path, capsys):
    for command, dotted in (("solve", "solver.grad_tol"), ("ledger", "potential.r2")):
        cfg = write_config(tmp_path, **{dotted: float("inf")})
        assert "Infinity" in cfg.read_text(encoding="utf-8")
        assert main([command, str(cfg)]) == EXIT_INVALID_INPUT
        assert dotted in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_blend_overflow_in_config_exits_invalid(tmp_path, capsys):
    # finite constants whose blend overflows a float are invalid input (exit 2),
    # not a crash with a traceback (exit 1)
    for edits in (
        {"potential.r1": 1e-200, "potential.r2": 1.0},
        {"potential.r2": 1e200, "potential.theta": 1.9},
    ):
        cfg = write_config(tmp_path, **edits)
        for command in ("solve", "ledger"):
            assert main([command, str(cfg)]) == EXIT_INVALID_INPUT
            assert "overflows a float" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_invalid_threads_env(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("ORBITACT_THREADS", "-2")
    assert main(["solve", str(cfg)]) == EXIT_INVALID_INPUT
    assert "ORBITACT_THREADS" in capsys.readouterr().err


def test_solve_no_orbits_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"solver.max_iters": 2})
    assert main(["solve", str(cfg)]) == EXIT_NO_ORBITS
    assert "no orbit passed" in capsys.readouterr().err


def test_ledger_passes_and_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["ledger", str(cfg), "--samples", "50"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "[PASS] pairwise_identity" in captured.out
    assert "ledger: PASS (9/9 checks)" in captured.out
    report = json.loads((tmp_path / "out" / "ledger.json").read_text(encoding="utf-8"))
    assert report["format"] == "orbitact.ledger/1"
    assert report["passed"] is True
    assert len(report["checks"]) == 9


def test_ledger_fails_on_linear_blend(tmp_path, capsys):
    cfg = write_config(tmp_path, **{"potential.blend": "linear"})
    assert main(["ledger", str(cfg), "--samples", "20"]) == EXIT_CHECKS_FAILED
    captured = capsys.readouterr()
    assert "[FAIL] blend_c1" in captured.out
    assert "ledger: FAIL (8/9 checks)" in captured.out


def test_ledger_sample_count_validation(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["ledger", str(cfg), "--samples", "-5"]) == EXIT_INVALID_INPUT
    assert "error: --samples must be >= 0" in capsys.readouterr().err
    # numpy rejects a negative seed with a traceback; the CLI rejects it first
    assert main(["ledger", str(cfg), "--seed", "-1"]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err == "error: --seed must be >= 0\n"
    assert not (tmp_path / "out").exists()
    assert main(["ledger", str(cfg), "--samples", "0"]) == EXIT_OK
    assert "vacuously" in capsys.readouterr().err


def test_ledger_custom_out_path(tmp_path):
    cfg = write_config(tmp_path)
    target = tmp_path / "reports" / "ledger.json"
    assert main(["ledger", str(cfg), "--samples", "10", "--out", str(target)]) == EXIT_OK
    assert target.exists()


def test_export_from_solve_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["solve", str(cfg)]) == EXIT_OK
    orbit = tmp_path / "out" / "orbit_000.json"
    capsys.readouterr()
    assert main(["export", str(orbit), "--samples", "16"]) == EXIT_OK
    csv_path = tmp_path / "out" / "orbit_000.csv"
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 17
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # exported positions are antiperiodic: x(t + T/2) = -x(t)
    assert np.abs(rows[8:, 1:] + rows[:8, 1:]).max() < 1e-10


def test_export_error_paths(tmp_path, capsys):
    assert main(["export", str(tmp_path / "nope.json")]) == EXIT_INVALID_INPUT
    cfg = write_config(tmp_path)
    main(["solve", str(cfg)])
    capsys.readouterr()
    orbit = tmp_path / "out" / "orbit_000.json"
    assert main(["export", str(orbit), "--samples", "0"]) == EXIT_INVALID_INPUT
    payload = json.loads(orbit.read_text(encoding="utf-8"))
    payload["loop"]["coefficients"][0] = 10**400  # an integer no float can hold
    orbit.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["export", str(orbit)]) == EXIT_INVALID_INPUT
    capsys.readouterr()
    for content in (b"\xff\xfe{}", b"[" * 100000):
        orbit.write_bytes(content)
        assert main(["export", str(orbit)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"error: orbit file {orbit}")


def test_unreadable_config_exits_invalid(tmp_path, capsys):
    # exit 1 means a ledger check failed, so a config that cannot be parsed must not reach it
    cfg = tmp_path / "config.json"
    for content in (b"\xff\xfe{}", b"[" * 100000):
        cfg.write_bytes(content)
        assert main(["ledger", str(cfg)]) == EXIT_INVALID_INPUT
        assert capsys.readouterr().err.startswith(f"error: config file {cfg}")


@pytest.mark.parametrize("command", ["solve", "ledger", "export"])
def test_unwritable_output_path_exits_invalid(tmp_path, monkeypatch, capsys, command):
    # a regular file where a directory should be makes every write under it fail
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    if command == "export":
        assert main(["solve", str(write_config(tmp_path))]) == EXIT_OK
        orbit = tmp_path / "out" / "orbit_000.json"
        argv = ["export", str(orbit), "--out", str(blocker / "x.csv")]
    else:
        cfg = write_config(tmp_path, **{"output.directory": str(blocker / "out")})
        argv = [command, str(cfg), "--samples", "5"] if command == "ledger" else [command, str(cfg)]

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before its output directory was made")

    def no_ledger(*args, **kwargs):
        raise AssertionError("the ledger ran before its output directory was made")

    monkeypatch.setattr(cli, "multistart", no_search)
    monkeypatch.setattr(cli, "run_inequality_ledger", no_ledger)
    capsys.readouterr()
    assert main(argv) == EXIT_INVALID_INPUT
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("orbitact ")
