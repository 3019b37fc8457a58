"""Reading and writing every JSON file, and exporting orbit files.

Every JSON output (orbit files, run summaries, ledger reports) is written
here, and every JSON input (orbit files here, run configurations through
``runconfig``) is read through :func:`_read_json`, which turns an unreadable
or malformed file into the caller's error naming the file.

An orbit file is a JSON document with three parts: the loop block (body count
N, dimension k, period T, harmonic count M, and the flat coefficient list in
body-major, harmonic-minor, cosine-before-sine order), a diagnostics block,
and the fully resolved configuration that produced it. Serialization is
canonical — fixed key order, two-space indent, trailing newline, floats in
shortest round-trip form — so loading a file and saving it again reproduces
the bytes exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import OrbitFileInvalid, ShapeMismatch
from .loopspace import LoopConfiguration, _is_finite_real, _require_integer, evaluate_positions
from .version import __version__

__all__ = [
    "ORBIT_FORMAT",
    "canonical_dumps",
    "orbit_payload",
    "save_canonical",
    "load_orbit",
    "export_trajectory",
]

ORBIT_FORMAT = "orbitact.orbit/1"


def canonical_dumps(payload: dict) -> str:
    """Serialize with the fixed layout used for all tool outputs."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def orbit_payload(record, resolved_config: dict) -> dict:
    """Build the canonical JSON object for one orbit record."""
    loop = record.loop
    return {
        "format": ORBIT_FORMAT,
        "meta": {
            "tool_version": __version__,
            "resolved_config": resolved_config,
        },
        "loop": {
            "N": loop.n_bodies,
            "k": loop.dim,
            "T": loop.period,
            "M": loop.harmonics,
            "coefficients": [float(v) for v in loop.flat()],
        },
        "diagnostics": {
            "action": float(record.action_value),
            "kinetic": float(record.kinetic),
            "grad_norm": float(record.grad_norm),
            "el_residual": float(record.el_residual),
            "winding_seed_class": int(record.winding_seed_class),
            "start_index": int(record.start_index),
            "dedup_key": record.dedup_key,
        },
    }


def save_canonical(path, payload: dict) -> None:
    """Write payload as :func:`canonical_dumps` text in UTF-8: orbit files, summaries, ledger reports."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(canonical_dumps(payload))


def _read_json(path, error, kind: str):
    """The parsed JSON document at path.

    A file that cannot be read or parsed raises ``error`` with a message
    naming the kind of file ("orbit", "config") and the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{kind} file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{kind} file {path} nests too deeply to parse") from None


def _json_integer(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(condition: bool, message: str):
    if not condition:
        raise OrbitFileInvalid(message)


def load_orbit(path):
    """Parse and validate an orbit file; returns (payload, LoopConfiguration)."""
    payload = _read_json(path, OrbitFileInvalid, "orbit")
    _require(isinstance(payload, dict), "orbit file root must be an object")
    _require(payload.get("format") == ORBIT_FORMAT, f"orbit file format must be {ORBIT_FORMAT!r}")
    _require(isinstance(payload.get("meta"), dict), "orbit file must contain a 'meta' object")
    loop_block = payload.get("loop")
    _require(isinstance(loop_block, dict), "orbit file must contain a 'loop' object")
    for key in ("N", "k", "M"):
        value = loop_block.get(key)
        _require(_json_integer(value) and value >= 1, f"loop.{key} must be a positive integer")
    period = loop_block.get("T")
    _require(_is_finite_real(period) and period > 0, "loop.T must be a finite positive number")
    coeffs = loop_block.get("coefficients")
    _require(isinstance(coeffs, list), "loop.coefficients must be a list")
    n, k, m = loop_block["N"], loop_block["k"], loop_block["M"]
    expected = n * m * 2 * k
    _require(
        len(coeffs) == expected,
        f"loop.coefficients must have N*M*2*k = {expected} entries, got {len(coeffs)}",
    )
    _require(all(map(_is_finite_real, coeffs)), "loop.coefficients must be finite numbers")
    try:
        loop = LoopConfiguration.from_flat(
            np.asarray(coeffs, dtype=float), n, k, float(period), m
        )
    except ShapeMismatch as exc:
        raise OrbitFileInvalid(str(exc)) from None
    return payload, loop


def export_trajectory(orbit_path, out_path=None, n_samples: int = 256) -> Path:
    """Write sampled positions to CSV; returns the output path.

    Columns are the time followed by each body's coordinates in body-major
    order; the header tags every column with its unit. Samples are taken at
    n_samples uniform times over one period. n_samples must be an integer
    >= 1 (numpy integers count, bools do not), or ValueError is raised.
    """
    _require_integer("n_samples", n_samples, 1)
    _, loop = load_orbit(orbit_path)
    times = np.arange(n_samples) * (loop.period / n_samples)
    positions = evaluate_positions(loop, times)
    columns = ["t[time]"]
    for i in range(1, loop.n_bodies + 1):
        for d in range(1, loop.dim + 1):
            columns.append(f"x{i}_{d}[length]")
    if out_path is None:
        out_path = Path(orbit_path).with_suffix(".csv")
    out_path = Path(out_path)
    lines = [",".join(columns)]
    for j in range(n_samples):
        row = [repr(float(times[j]))]
        row.extend(repr(float(v)) for v in positions[j].reshape(-1))
        lines.append(",".join(row))
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return out_path
