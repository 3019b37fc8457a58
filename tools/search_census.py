"""Print, per seed, how many starts the benchmark searches converge and which orbits they keep.

Runs the benchmark's search workloads, as ``perfbench/workloads.py``
prepares them (equal unit masses, windings {1, 3, 5} x 4 starts, serial
``multistart``): ladder2 (N=2, M=8) and ring6 (N=6, M=24), each at seeds
0-19. For every seed it prints the number of converged starts, the
iterations summed over the starts, the count of each final status, the
number of converged starts the residual filter dropped and the distinct
kept actions: sorted, neighbours within 1e-6 relatively merged into the
first, each rounded to 9 significant digits. Each search also gets
its converged count and its iterations summed over the seeds; iteration
counts are deterministic, so they compare across checkouts like the rest.
So does the cost of its Newton polish, summed over the seeds: the MINRES
solves, the Hessian-vector products they take and the solves that reach
their cap of n products, counted by wrapping ``solver._minres`` for the
duration of the search.

It also runs one search in the paper's non-autonomous setting, built here
and not in the benchmark: modulated4, N=4 equal unit masses, M=16,
modulation eps = 0.3, the same windings, starts and options, at seeds 0-9.
Most of its converged starts fail the residual filter, so its distinct
actions are few; its converged count is what shows a solver change that
trades eps = 0 convergence for eps > 0 convergence.

A change to the solver must converge at least as many starts per search,
summed over the seeds, and lose none of the parent's distinct actions at
any seed; a new distinct action is allowed, but the change must name it.
The result goes to stdout as canonical JSON, so two checkouts compare with
``diff``:

    python3 tools/search_census.py > after.json
    diff before.json after.json

It takes no arguments and runs the sources of the checkout it sits in.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import (  # noqa: E402
    DIM,
    SEARCH_WINDINGS,
    WORKLOADS,
    distinct_values,
    equal_mass_spec,
)

from orbitact import solver  # noqa: E402
from orbitact.solver import SolveOptions, multistart  # noqa: E402


def benchmark_search(name: str):
    """The seeded search of the benchmark workload ``name``."""
    return lambda seed: WORKLOADS[name].prepare(seed)[0]()


def modulated4(seed: int):
    """ring6's search setup at N=4, M=16 under modulation eps = 0.3."""
    ring6 = WORKLOADS["ring6"]
    return multistart(
        equal_mass_spec(4, 0.3),
        SEARCH_WINDINGS,
        ring6.starts_per_class,
        SolveOptions(max_iters=ring6.max_iters, seed=seed),
        dim=DIM,
        harmonics=16,
        workers=1,
    )


# search name -> (seed -> MultistartResult, seeds)
SEARCHES = {
    "ladder2": (benchmark_search("ladder2"), range(20)),
    "ring6": (benchmark_search("ring6"), range(20)),
    "modulated4": (modulated4, range(10)),
}


def census(run, seed: int) -> dict:
    result = run(seed)
    return {
        "converged": result.n_converged,
        "iterations": sum(start.report.iterations for start in result.reports),
        "statuses": dict(Counter(start.report.status.value for start in result.reports)),
        "residual_drops": result.n_dropped_residual,
        "actions": [
            float(f"{value:.9g}")
            for value in distinct_values(record.action_value for record in result.records)
        ],
    }


def counting_minres(tally: Counter):
    """``solver._minres`` that adds each solve, its products and whether it hit its cap to tally."""
    minres = solver._minres

    def counted(apply, b, minv, maxiter, rtol):
        products = 0

        def product(v):
            nonlocal products
            products += 1
            return apply(v)

        x = minres(product, b, minv, maxiter, rtol)
        tally.update(solves=1, products=products, capped=int(products == maxiter))
        return x

    return counted


def main() -> None:
    out = {}
    minres = solver._minres
    for name, (run, seed_range) in SEARCHES.items():
        tally = Counter(solves=0, products=0, capped=0)
        solver._minres = counting_minres(tally)
        try:
            seeds = {str(seed): census(run, seed) for seed in seed_range}
        finally:
            solver._minres = minres
        out[name] = {
            "converged_total": sum(row["converged"] for row in seeds.values()),
            "iterations_total": sum(row["iterations"] for row in seeds.values()),
            "minres": dict(tally),
            "seeds": seeds,
        }
    json.dump(out, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
