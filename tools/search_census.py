"""Print, per seed, how many starts the benchmark searches converge and which orbits they keep.

Runs the benchmark's search workloads, as ``perfbench/workloads.py``
prepares them (equal unit masses, windings {1, 3, 5} x 4 starts, serial
``multistart``): ladder2 (N=2, M=8) and ring6 (N=6, M=24), each at seeds
0-19. For every seed it prints the number of converged starts, the
iterations summed over the starts, the count of each final status and the
distinct kept actions: sorted, neighbours within 1e-6 relatively merged
into the first, each rounded to 9 significant digits. Each search also gets
its converged count and its iterations summed over the seeds; iteration
counts are deterministic, so they compare across checkouts like the rest.

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

from workloads import WORKLOADS, distinct_values  # noqa: E402

SEARCHES = ("ladder2", "ring6")
SEEDS = range(20)


def census(name: str, seed: int) -> dict:
    result = WORKLOADS[name].prepare(seed)[0]()
    return {
        "converged": result.n_converged,
        "iterations": sum(start.report.iterations for start in result.reports),
        "statuses": dict(Counter(start.report.status.value for start in result.reports)),
        "actions": [
            float(f"{value:.9g}")
            for value in distinct_values(record.action_value for record in result.records)
        ],
    }


def main() -> None:
    out = {}
    for name in SEARCHES:
        seeds = {str(seed): census(name, seed) for seed in SEEDS}
        out[name] = {
            "converged_total": sum(row["converged"] for row in seeds.values()),
            "iterations_total": sum(row["iterations"] for row in seeds.values()),
            "seeds": seeds,
        }
    json.dump(out, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
