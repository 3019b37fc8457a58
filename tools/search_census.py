"""Print, per seed, how many starts the benchmark searches converge and which orbits they keep.

Runs serial ``multistart`` on the benchmark's search problems (equal unit
masses, windings {1, 3, 5} x 4 starts, default solver options): ladder2
(N=2, M=8) and ring6 (N=6, M=24), each at seeds 0-19. For every seed it
prints the number of converged starts, the count of each final status and
the distinct kept actions: sorted, neighbours within 1e-6 relatively merged
into the first, each rounded to 9 significant digits. Each search also gets
its converged count summed over the seeds.

A change to the solver must converge at least as many starts per search,
summed over the seeds, and keep the same distinct actions at every seed.
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from report_digest import STARTS_PER_CLASS, WINDINGS, benchmark_spec  # noqa: E402

from orbitact.solver import SolveOptions, multistart  # noqa: E402

# name -> (bodies, harmonics)
SEARCHES = {"ladder2": (2, 8), "ring6": (6, 24)}
SEEDS = range(20)
DISTINCT_REL = 1e-6


def distinct_actions(values) -> list:
    """Sorted values, each within DISTINCT_REL of the last kept one merged into it."""
    kept = []
    for value in sorted(values):
        if not kept or abs(value - kept[-1]) > DISTINCT_REL * max(abs(value), abs(kept[-1])):
            kept.append(value)
    return [float(f"{value:.9g}") for value in kept]


def census(n_bodies: int, harmonics: int, seed: int) -> dict:
    result = multistart(
        benchmark_spec(n_bodies),
        WINDINGS,
        STARTS_PER_CLASS,
        SolveOptions(seed=seed),
        dim=2,
        harmonics=harmonics,
        workers=1,
    )
    return {
        "converged": result.n_converged,
        "statuses": dict(Counter(start.report.status.value for start in result.reports)),
        "actions": distinct_actions(record.action_value for record in result.records),
    }


def main() -> None:
    out = {}
    for name, (n_bodies, harmonics) in SEARCHES.items():
        seeds = {str(seed): census(n_bodies, harmonics, seed) for seed in SEEDS}
        out[name] = {
            "converged_total": sum(row["converged"] for row in seeds.values()),
            "seeds": seeds,
        }
    json.dump(out, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
