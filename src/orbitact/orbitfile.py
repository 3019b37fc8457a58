"""Reading, writing, and exporting orbit files.

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
import sys
from pathlib import Path

import numpy as np

from .errors import OrbitFileInvalid, ShapeMismatch
from .loopspace import LoopConfiguration, _is_integer, evaluate_positions
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


def _require(condition: bool, message: str):
    if not condition:
        raise OrbitFileInvalid(message)


def load_orbit(path):
    """Parse and validate an orbit file; returns (payload, LoopConfiguration)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise OrbitFileInvalid(f"cannot read orbit file {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise OrbitFileInvalid(f"orbit file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise OrbitFileInvalid(f"orbit file {path} nests too deeply to parse") from None

    _require(isinstance(payload, dict), "orbit file root must be an object")
    _require(payload.get("format") == ORBIT_FORMAT, f"orbit file format must be {ORBIT_FORMAT!r}")
    _require(isinstance(payload.get("meta"), dict), "orbit file must contain a 'meta' object")
    loop_block = payload.get("loop")
    _require(isinstance(loop_block, dict), "orbit file must contain a 'loop' object")
    for key in ("N", "k", "M"):
        value = loop_block.get(key)
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            f"loop.{key} must be a positive integer",
        )
    period = loop_block.get("T")
    _require(
        isinstance(period, (int, float))
        and not isinstance(period, bool)
        and 0 < period <= sys.float_info.max,  # finite as a float, so no inf or huge integer
        "loop.T must be a finite positive number",
    )
    coeffs = loop_block.get("coefficients")
    _require(isinstance(coeffs, list), "loop.coefficients must be a list")
    n, k, m = loop_block["N"], loop_block["k"], loop_block["M"]
    expected = n * m * 2 * k
    _require(
        len(coeffs) == expected,
        f"loop.coefficients must have N*M*2*k = {expected} entries, got {len(coeffs)}",
    )
    _require(
        all(
            isinstance(v, (int, float))
            and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max  # as for loop.T; math.isfinite overflows on huge integers
            for v in coeffs
        ),
        "loop.coefficients must be finite numbers",
    )
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
    if not _is_integer(n_samples):
        raise ValueError(f"n_samples must be an integer, not {n_samples!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
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
