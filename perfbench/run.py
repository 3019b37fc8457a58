"""Benchmark of orbitact: time to find and verify orbits, and one ledger run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {ladder2,ring6,ledger} --seed N \
        --seconds S --trace {0,1} [--smoke]

With ``--trace 0`` the run times the workload's operation untraced, over and
over for S seconds, checks every output and prints the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced operations and prints
the per-layer metrics. ``--smoke`` shrinks every workload so that a run takes
a second or two; the smoke test uses it. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The line
before it holds the machine facts and the sample counts.

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from calibration import REFERENCE_S, SpeedSampler

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("ladder2", "ring6", "ledger")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="shrink the workload")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def machine_facts(seed: int) -> dict:
    """Versions, BLAS build and thread count, CPU count and the seed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def _openblas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None elsewhere."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def measure_setup(workload: str, seed: int, repeats: int) -> tuple:
    """Set-up times of fresh interpreters, in wall and in reference seconds.

    Each probe is timed from its start to its ``ready`` line. Its wall time
    is then scaled by REFERENCE_S over the kernel time the probe measured on
    its own CPU right after, like the operations' times.
    """
    probe = str(HERE / "setup_probe.py")
    wall, reference = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            kernel = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
        wall.append(elapsed)
        reference.append(elapsed * REFERENCE_S / float(kernel))
    return wall, reference


class Runner:
    """Times one workload's operation and checks each output.

    Every operation's counts must equal the first one's, since the inputs
    repeat exactly; an operation that raises, fails its check or disagrees
    counts as failed. ``wall`` and ``reference`` hold each operation's time
    in wall and in reference seconds (see calibration.py).
    """

    def __init__(self, workload, seed: int):
        self.operate, self.assess = workload.prepare(seed)
        self.attempted = 0
        self.failed = 0
        self.outcome = None
        self.wall = []
        self.reference = []

    def once(self, tracer=None) -> None:
        self.attempted += 1
        sampler = SpeedSampler(on_pause=tracer.exclude if tracer else None)
        try:
            with sampler, (tracer or contextlib.nullcontext()):
                result = self.operate()
            outcome = self.assess(result)
        except Exception:
            self._fail(traceback.format_exc())
            outcome = None
        finally:
            self.wall.append(sampler.wall_s)
            self.reference.append(sampler.reference_s)
        if outcome is None:
            return
        if outcome.problems:
            self._fail("; ".join(outcome.problems))
        elif self.outcome is None:
            self.outcome = outcome
        elif outcome.counts() != self.outcome.counts():
            self._fail(f"counts {outcome.counts()} differ from the first run's {self.outcome.counts()}")

    def _fail(self, message: str):
        self.failed += 1
        print(f"operation {self.attempted} failed: {message}", file=sys.stderr)


def timed_loop(seconds: float, steps) -> None:
    """Cycle through steps while time allows.

    A new cycle starts only when the median cycle so far still fits in the
    remaining time, so the run ends near ``seconds`` without cutting an
    operation; the first cycle always runs.
    """
    start = time.perf_counter()
    cycles = []
    while True:
        cycle_start = time.perf_counter()
        for step in steps:
            step()
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return


def quartiles(values) -> list:
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(runner: Runner, setup_times: list) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s": (statistics.median(runner.reference), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "fraction"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(workload, runner: Runner, untraced: list, traced: list, span_runs: list) -> dict:
    """Per-span medians over the traced operations, plus derived ratios.

    Self times are scaled into reference seconds with the speed factor of
    the operation they belong to, like op_s.
    """
    from tracing import SPANS
    from workloads import DIM

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for key in SPANS:
        layer, fn = key
        put(f"{layer}.{fn}.calls", int(statistics.median(run[key].calls for run, _ in span_runs)), "count")
        put(f"{layer}.{fn}.self_s", statistics.median(run[key].self_s * f for run, f in span_runs), "s")

    outcome = runner.outcome
    solver = outcome.solver if outcome else {}
    iterations = solver.get("iterations", 0)
    for name in ("iterations", "max_iters_starts", "stalled_starts", "residual_drops"):
        put(f"solver.{name}", solver.get(name, 0), "count")
    # Starts converged, solutions and distinct orbits depend on the seed as
    # a draw over 12 starts, too widely for a bounded end-to-end metric.
    searched = bool(solver)
    put("solver.converged_frac", outcome.passed / outcome.units if searched else 0.0, "fraction")
    put(
        "solver.s_per_solution",
        statistics.median(untraced) / outcome.solutions if searched and outcome.solutions else 0.0,
        "s",
    )
    put("solver.orbits_found", outcome.distinct if searched else 0, "count")
    put("solver.polish_steps", metrics["action.action_hessian.calls"]["value"], "count")
    value_calls = metrics["action.action_value.calls"]["value"]
    put("solver.trials_per_step", value_calls / iterations if iterations else 0.0, "trials/step")
    collisions = (run[("action", "action_value")].raised["CollisionSample"] for run, _ in span_runs)
    put("action.action_value.collisions", int(statistics.median(collisions)), "count")

    n, m, n_t = workload.n_bodies, workload.harmonics, workload.n_t
    pair_nodes = metrics["potential.grid_potential.calls"]["value"] * n_t * n * (n - 1) // 2
    grid_self = metrics["potential.grid_potential.self_s"]["value"]
    put("potential.grid_potential.ns_per_pair_node", 1e9 * grid_self / pair_nodes if pair_nodes else 0.0, "ns")
    coeff_nodes = metrics["loopspace.sample_trajectory.calls"]["value"] * n * m * 2 * DIM * n_t
    sample_self = metrics["loopspace.sample_trajectory.self_s"]["value"]
    put(
        "loopspace.sample_trajectory.ns_per_coeff_node",
        1e9 * sample_self / coeff_nodes if coeff_nodes else 0.0,
        "ns",
    )
    put("trace.overhead_frac", statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the package under test: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.shrunk()
    facts = machine_facts(args.seed)

    workload.warm_up(args.seed)
    runner = Runner(workload, args.seed)
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        untraced, traced, span_runs = [], [], []

        def untraced_once():
            runner.once()
            untraced.append(runner.reference[-1])

        def traced_once():
            runner.once(tracer)
            traced.append(runner.reference[-1])
            span_runs.append((tracer.spans, runner.reference[-1] / runner.wall[-1]))

        timed_loop(args.seconds, [untraced_once, traced_once])
        metrics = per_layer(workload, runner, untraced, traced, span_runs)
        samples = {"untraced": len(untraced), "traced": len(traced)}
    else:
        setup_wall, setup_times = measure_setup(args.workload, args.seed, 1 if args.smoke else SETUP_REPEATS)
        timed_loop(args.seconds, [runner.once])
        metrics = end_to_end(runner, setup_times)
        samples = {
            "op_s": len(runner.reference),
            "op_s_quartiles": quartiles(runner.reference),
            "op_wall_s_quartiles": quartiles(runner.wall),
            "setup_s": len(setup_times),
            "setup_s_quartiles": quartiles(setup_times),
            "setup_wall_s_quartiles": quartiles(setup_wall),
        }

    info = {"workload": args.workload, "smoke": args.smoke, "facts": facts, "samples": samples}
    if runner.outcome is not None:
        info["counts"] = runner.outcome.counts()
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
