"""Print a digest of every benchmark workload's result, to check that a change is bit-identical.

Runs the benchmark's workloads, as ``perfbench/workloads.py`` prepares
them: the serial ``multistart`` of ladder2 (N=2, M=8) at seeds 0-4 and of
ring6 (N=6, M=24) at seeds 0-2. For each start it hashes, with SHA-256, the
final coefficients, status, iterations, action, kinetic energy, gradient
norm and the three traces; it also lists every kept record's
``dedup_key``. It also runs the ledger workload (N=4 unit masses,
modulation 0.3, dim 2, M=8, 5000 samples) at seeds 0-2 and hashes each
report's ``to_dict()`` as JSON in its own key order, and does the same for
a sweep of ledger edge configurations on the same problem (1, 2 or 6 unequal
masses; dim 1 or 3; alpha 2 with theta 1 or alpha 3 with theta -0.5;
modulation 0 or 0.3; 0, 1, 300 or 900 samples; at 900 the chunked
coefficient blocks span several chunks of 128 loops, six of general
Wirtinger loops and two of first-harmonic loops).
A report keeps only each check's worst slack, so every ledger entry also
hashes each check's sorted per-sample slacks, captured by wrapping
``orbitact.verify._ledger_check`` for the duration of the run.
Finally it hashes ``action`` (value, gradient, kinetic energy, potential
integral, minimum separation), ``action_hessian`` (the matrix of
``_Evaluator.hessp``, built from its products with the unit vectors) and
that product applied to one seeded vector, at fixed seeded loops of 1, 2,
3 and 6 unequal masses in dim 1, 2 and 3, under modulation 0.3: per shape
one loop inside r1 and one whose pair distances cross the blend window, so
the pair kernel and the product the polish solves with are covered in
every dimension and not only through the search. The two loops of each
shape are also evaluated as one batch by ``_Evaluator.actions``, the call
that evaluates the trials of a serial search; each ``action_batch`` entry
hashes one loop's result in the byte format of its ``action`` hash, so the
two hashes are equal exactly when the loop's bits do not depend on the
batch it shares. Each of these loops also gets a ``residual`` entry, the
hash of ``euler_lagrange_residual`` there: the figure that decides whether
a search keeps a converged orbit.
It hashes the radial profile itself, ``potential._profile`` at orders 0,
1 and 2, on one fixed array of separations that spans the inner branch,
the blend window and the tail, with both seams r1 and r2 exact, in float64
and in longdouble, for the hermite and linear blends at alpha 2 and 3: so
the path that evaluates each branch only on its own separations is covered
directly. Each value enters the hash as its float64 rounding followed by
the remainder, which holds a longdouble exactly.
Last it runs the command line end to end, in a fresh temporary working
directory with ``ORBITACT_THREADS=1``: ``solve`` of a config with 3 unit
masses, modulation 0.1, winding classes 1 and 3 and 2 starts per class,
writing to ``out`` (a relative directory, so the resolved config embedded
in every output names no temporary path), then ``ledger --samples 300`` of
the same config and ``export`` of ``out/orbit_000.json``. The ``cli``
entry lists the three exit codes and the SHA-256 of every file written
under ``out``: the orbit files, the summary, the ledger report and the CSV.
The result goes to stdout as canonical JSON, so two checkouts agree bit for
bit exactly when their outputs are equal:

    python3 tools/report_digest.py > after.json
    diff before.json after.json

It takes no arguments and runs the sources of the checkout it sits in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import struct
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
from workloads import WORKLOADS, equal_mass_spec  # noqa: E402

from orbitact import cli, verify  # noqa: E402
from orbitact.action import _Evaluator, action, action_hessian  # noqa: E402
from orbitact.loopspace import LoopConfiguration  # noqa: E402
from orbitact.potential import _profile  # noqa: E402

# workload -> seeds
SEEDS = {"ladder2": range(5), "ring6": range(3), "ledger": range(3)}
# the ledger edge sweep: bodies, dims, (alpha, theta), modulations, samples
LEDGER_EDGES = ((1, 2, 6), (1, 3), ((2.0, 1.0), (3.0, -0.5)), (0.0, 0.3), (0, 1, 300, 900))
# the action sweep: bodies, dims, loop scales (0.3 stays inside r1 = 2, 2.0 crosses it)
ACTION_SHAPES = ((1, 2, 3, 6), (1, 2, 3), (0.3, 2.0))
ACTION_HARMONICS = 4
# the profile sweep: blends, alphas and dtypes
PROFILE_SHAPES = (("hermite", "linear"), (2.0, 3.0), ("float64", "longdouble"))
# the command-line run: its config and the subcommands run in order on it
CLI_CONFIG = {
    "problem": {"n_bodies": 3, "period": 2.0 * np.pi, "masses": [1.0, 1.0, 1.0]},
    "potential": {
        "a": 1.0, "g": 0.01, "alpha": 2.0, "theta": 1.0, "r1": 2.0, "r2": 3.0, "modulation_eps": 0.1
    },
    "solver": {"winding_classes": [1, 3], "starts_per_class": 2},
    "output": {"directory": "out"},
}
CLI_STEPS = (
    ["solve", "config.json"],
    ["ledger", "config.json", "--samples", "300"],
    ["export", "out/orbit_000.json"],
)


def _floats(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


def report_digest(report) -> str:
    digest = hashlib.sha256()
    digest.update(_floats(report.final_loop.coefficients))
    digest.update(report.status.value.encode())
    digest.update(struct.pack("<q", report.iterations))
    digest.update(_floats([report.action_value, report.kinetic, report.grad_norm]))
    digest.update(_floats(report.ps_trace))
    digest.update(_floats(report.kinetic_trace))
    digest.update(_floats(report.min_separation_trace))
    return digest.hexdigest()


def ledger_digest(run) -> dict:
    """Hashes of the report ``run()`` returns and of each check's sorted per-sample slacks."""
    slack_digests = {}
    reduce = verify._ledger_check

    def capture(name, slacks, tolerance, *, lower):
        values = np.concatenate([np.ravel(s) for s in slacks]) if slacks else np.empty(0)
        slack_digests[name] = hashlib.sha256(_floats(np.sort(values))).hexdigest()
        return reduce(name, slacks, tolerance, lower=lower)

    verify._ledger_check = capture
    try:
        report = run()
    finally:
        verify._ledger_check = reduce
    return {
        "report": hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest(),
        "slacks": slack_digests,
    }


def action_spec(n_bodies: int):
    return replace(equal_mass_spec(n_bodies, 0.3), masses=np.linspace(0.7, 1.9, n_bodies))


def action_loop(n_bodies: int, dim: int, scale: float):
    """The seeded loop with 1/m^2 decay of one action entry, and the generator that drew it."""
    rng = np.random.default_rng(1000 * n_bodies + 10 * dim + int(scale > 1.0))
    orders = np.arange(1, 2 * ACTION_HARMONICS, 2, dtype=float)
    coefficients = rng.standard_normal((n_bodies, ACTION_HARMONICS, 2, dim))
    coefficients *= scale / orders[None, :, None, None] ** 2
    return LoopConfiguration(n_bodies, dim, action_spec(n_bodies).period, coefficients), rng


def evaluation_hash(ev) -> str:
    return hashlib.sha256(
        _floats([ev.value, ev.kinetic, ev.potential_integral, ev.min_separation])
        + _floats(ev.gradient)
    ).hexdigest()


def action_digest(n_bodies: int, dim: int, scale: float) -> dict:
    """Hashes of ``action``, ``action_hessian`` and ``hessp`` at one seeded loop.

    The vector ``hessp`` is applied to is drawn from the same generator after
    the coefficients, so the loop is the same as without it.
    """
    spec = action_spec(n_bodies)
    loop, rng = action_loop(n_bodies, dim, scale)
    product = _Evaluator(spec, loop).hessp(loop.flat())
    vector = rng.standard_normal(loop.coefficients.size)
    return {
        "action": evaluation_hash(action(spec, loop)),
        "hessian": hashlib.sha256(_floats(action_hessian(spec, loop))).hexdigest(),
        "hessp": hashlib.sha256(_floats(product(vector))).hexdigest(),
    }


def residual_digest(n_bodies: int, dim: int, scale: float) -> str:
    """Hash of ``euler_lagrange_residual`` at the seeded loop of one action entry."""
    loop = action_loop(n_bodies, dim, scale)[0]
    return hashlib.sha256(_floats([verify.euler_lagrange_residual(action_spec(n_bodies), loop)])).hexdigest()


def action_batch_digest(n_bodies: int, dim: int, scales) -> dict:
    """Per scale, the hash of that loop's evaluation in one batch with the other scales' loops."""
    loops = [action_loop(n_bodies, dim, scale)[0] for scale in scales]
    batch = _Evaluator(action_spec(n_bodies), loops[0]).actions(np.stack([loop.flat() for loop in loops]))
    return {scale: evaluation_hash(ev) for scale, ev in zip(scales, batch)}


def profile_digest(blend: str, alpha: float, dtype_name: str) -> str:
    """Hash of ``_profile`` at orders 0-2 on separations across all three branches, seams exact."""
    spec = replace(equal_mass_spec(2), alpha=alpha, blend=blend)
    dtype = np.dtype(dtype_name).type
    r1, r2 = dtype(spec.r1), dtype(spec.r2)
    r = np.array(
        [2.5, 0.05, r1, 3.3, np.nextafter(r1, 0), 1e3, r2, 1.0, np.nextafter(r2, 0), 2.2, 0.5, 2.8, 10.0],
        dtype=dtype,
    )
    digest = hashlib.sha256()
    for order in range(3):
        for values in _profile(spec, r, order):
            high = values.astype(np.float64)
            digest.update(_floats(high) + _floats(values - high))
    return digest.hexdigest()


def cli_digest() -> dict:
    """Exit codes of the CLI_STEPS and the hash of every file they write, run in a fresh directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir, mock.patch.dict(os.environ, ORBITACT_THREADS="1"):
        os.chdir(workdir)
        try:
            Path("config.json").write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [cli.main(step) for step in CLI_STEPS]
            files = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in Path("out").iterdir()
            }
        finally:
            os.chdir(home)
    return {"exit_codes": codes, "files": files}


def main() -> None:
    out = {}
    for name in ("ladder2", "ring6"):
        for seed in SEEDS[name]:
            result = WORKLOADS[name].prepare(seed)[0]()
            out[f"{name}/seed{seed}"] = {
                "starts": {
                    f"w{s.winding_class}/start{s.start_index}": report_digest(s.report)
                    for s in result.reports
                },
                "dedup_keys": [record.dedup_key for record in result.records],
            }
    for seed in SEEDS["ledger"]:
        out[f"ledger/seed{seed}"] = ledger_digest(WORKLOADS["ledger"].prepare(seed)[0])
    for n_bodies, dim, (alpha, theta), eps, samples in itertools.product(*LEDGER_EDGES):
        spec = replace(
            equal_mass_spec(n_bodies, eps),
            masses=np.linspace(0.7, 1.9, n_bodies),
            alpha=alpha,
            theta=theta,
        )
        key = f"ledger_edge/N{n_bodies}/dim{dim}/alpha{alpha}/theta{theta}/eps{eps}/n{samples}"
        run = partial(verify.run_inequality_ledger, spec, dim, 3, samples, 7 * n_bodies + dim)
        out[key] = ledger_digest(run)
    bodies, dims, scales = ACTION_SHAPES
    for n_bodies, dim in itertools.product(bodies, dims):
        for scale in scales:
            out[f"action/N{n_bodies}/dim{dim}/scale{scale}"] = action_digest(n_bodies, dim, scale)
            out[f"residual/N{n_bodies}/dim{dim}/scale{scale}"] = residual_digest(n_bodies, dim, scale)
        for scale, digest in action_batch_digest(n_bodies, dim, scales).items():
            out[f"action_batch/N{n_bodies}/dim{dim}/scale{scale}"] = digest
    for blend, alpha, dtype_name in itertools.product(*PROFILE_SHAPES):
        out[f"profile/{blend}/alpha{alpha}/{dtype_name}"] = profile_digest(blend, alpha, dtype_name)
    out["cli"] = cli_digest()
    json.dump(out, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
