"""Print, per seed, how many starts the benchmark searches converge and which orbits they keep.

Runs the benchmark's search workloads, as ``perfbench/workloads.py``
prepares them (equal unit masses, windings {1, 3, 5} x 4 starts, serial
``multistart``): ladder2 (N=2, M=8) and ring6 (N=6, M=24), each at seeds
0-19. For every seed it prints the number of converged starts, the
iterations summed over the starts, the count of each final status, the
number of converged starts the residual filter dropped and the distinct
kept actions: sorted, neighbours within 1e-6 relatively merged into the
first, each rounded to 9 significant digits. For ladder2 and ring6 it
also lists the problems that the workload's own check (``assess``, the
half of ``prepare`` that the benchmark scores ``ok_frac`` with) finds in
the result: an empty list when the check passes. Each search also gets
its converged count and its iterations summed over the seeds; iteration
counts are deterministic, so they compare across checkouts like the rest.
So does the cost of its Newton polish, summed over the seeds: the MINRES
solves, the Hessian-vector products they take, the solves that reach their
cap of n products and the solves whose step x the polish refuses because it
is not a descent step or shows no positive curvature (b.x <= 0 or
x.Ax <= 0; the polish then steps along -D^-1 g). ``most_products`` is the
most products any one solve takes. It measures work only: MINRES forms
its solution by short recurrences and stores no Lanczos basis, so a solve
holds a fixed handful of vectors of n floats whatever its number of
products. All are counted by wrapping ``solver._minres`` for the duration
of the search.

Each search also gets the work of its batched evaluator, summed over the
seeds: ``calls`` counts the batches ``_Evaluator.actions`` evaluates (one
pair-kernel call each, the start batch and collision fallbacks included),
``largest_trial`` the most rows any ``actions`` call after a seed's start
batch takes, and ``rows`` the evaluator's row count per batch, which is
also the most descents the serial lockstep keeps live (the least over the
seeds). ``largest_trial`` above ``rows`` means the lockstep outgrew its
window. They are counted by wrapping ``_Evaluator.actions`` and
``_Evaluator._batch``.

It also runs one search in the paper's non-autonomous setting, built here
and not in the benchmark: modulated4, N=4 equal unit masses, M=16,
modulation eps = 0.3, the same windings, starts and options, at seeds 0-9.
Most of its converged starts fail the residual filter, so its distinct
actions are few; its converged count is what shows a solver change that
trades eps = 0 convergence for eps > 0 convergence.

And one search with unequal masses, unequal3: N=3, masses (1, 2, 3), M=12,
eps = 0, the same windings, starts and options, at seeds 0-9. Every start
should converge to the rotating Lagrange triangle, whose action has a
closed form: at alpha = 2 with every pair on the inner branch, U I =
a S^2 / sum(m) with S = sum_{i<j} m_i m_j (121/6 here), and the action of
winding w over T = 2 pi is 4 pi w sqrt(U I / 2). Its ``problems`` list
every kept action that misses that value by more than 1e-10 relatively.

A change to the solver must converge at least as many starts per search,
summed over the seeds, and lose none of the parent's distinct actions at
any seed, and must leave every problems list empty; a new distinct action
is allowed, but the change must name it.
The result goes to stdout as canonical JSON, so two checkouts compare with
``diff``:

    python3 tools/search_census.py > after.json
    diff before.json after.json

It takes no arguments and runs the sources of the checkout it sits in.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import (  # noqa: E402
    DIM,
    SEARCH_WINDINGS,
    WORKLOADS,
    distinct_values,
    equal_mass_spec,
)

from orbitact import solver  # noqa: E402
from orbitact.action import _Evaluator  # noqa: E402
from orbitact.solver import SolveOptions, multistart  # noqa: E402


def benchmark_search(name: str):
    """The seeded search of the benchmark workload ``name``: (result, its check's problems)."""

    def run(seed: int):
        operate, assess = WORKLOADS[name].prepare(seed)
        result = operate()
        return result, list(assess(result).problems)

    return run


def ring6_search(spec, harmonics: int, seed: int):
    """A serial multistart of ``spec`` with ring6's windings, starts and options."""
    ring6 = WORKLOADS["ring6"]
    return multistart(
        spec,
        SEARCH_WINDINGS,
        ring6.starts_per_class,
        SolveOptions(max_iters=ring6.max_iters, seed=seed),
        dim=DIM,
        harmonics=harmonics,
        workers=1,
    )


def modulated4(seed: int):
    """ring6's search setup at N=4, M=16 under modulation eps = 0.3: (result, None), no check."""
    return ring6_search(equal_mass_spec(4, 0.3), 16, seed), None


LAGRANGE_REL = 1e-10


def unequal3(seed: int):
    """ring6's search setup at N=3, masses (1, 2, 3), M=12: (result, problems against the closed form)."""
    spec = replace(equal_mass_spec(3), masses=np.array([1.0, 2.0, 3.0]))
    result = ring6_search(spec, 12, seed)
    m = spec.masses
    pair_sum = float(m[0] * m[1] + m[0] * m[2] + m[1] * m[2])
    u_times_i = spec.a * pair_sum**2 / float(m.sum())
    problems = []
    for record in result.records:
        got = float(record.action_value)
        want = 4.0 * math.pi * record.winding_seed_class * math.sqrt(u_times_i / 2.0)
        if not abs(got - want) <= LAGRANGE_REL * want:
            problems.append(
                f"winding {record.winding_seed_class}: action {got!r} misses the Lagrange "
                f"triangle's {want!r} by more than {LAGRANGE_REL:g} relatively"
            )
    return result, problems


# search name -> (seed -> (MultistartResult, problems or None), seeds)
SEARCHES = {
    "ladder2": (benchmark_search("ladder2"), range(20)),
    "ring6": (benchmark_search("ring6"), range(20)),
    "modulated4": (modulated4, range(10)),
    "unequal3": (unequal3, range(10)),
}


def census(run, seed: int) -> dict:
    result, problems = run(seed)
    row = {
        "converged": result.n_converged,
        "iterations": sum(start.report.iterations for start in result.reports),
        "statuses": dict(Counter(start.report.status.value for start in result.reports)),
        "residual_drops": result.n_dropped_residual,
        "actions": [
            float(f"{value:.9g}")
            for value in distinct_values(record.action_value for record in result.records)
        ],
    }
    if problems is not None:
        row["problems"] = problems
    return row


def counting_minres(tally: Counter):
    """``solver._minres`` that adds each solve, its products, whether it hit its cap
    and whether the polish refuses its step to tally, and keeps the most
    products of any one solve."""
    minres = solver._minres

    def counted(apply, b, minv, maxiter, rtol):
        products = 0

        def product(v):
            nonlocal products
            products += 1
            return apply(v)

        x = minres(product, b, minv, maxiter, rtol)
        refused = not (b.dot(x) > 0 and x.dot(apply(x)) > 0)
        tally.update(
            solves=1, products=products, capped=int(products == maxiter), refused=int(refused)
        )
        tally["most_products"] = max(tally["most_products"], products)
        return x

    return counted


def counting_batches(tally: dict):
    """``_Evaluator.actions`` and ``_Evaluator._batch`` that add each batch to tally's
    ``calls`` and keep the largest trial call and the least row count.

    The first ``actions`` call on an evaluator is its start batch; the
    evaluator of the last start batch stays referenced, so a later one is
    never taken for it.
    """
    actions, batch = _Evaluator.actions, _Evaluator._batch
    last = [None]

    def counted_actions(self, xs):
        if self is last[0]:
            tally["largest_trial"] = max(tally["largest_trial"], len(xs))
        else:
            last[0] = self
            rows = self.batch_rows(len(xs))
            tally["rows"] = rows if tally["rows"] is None else min(tally["rows"], rows)
        return actions(self, xs)

    def counted_batch(self, xs):
        tally["calls"] += 1
        return batch(self, xs)

    return counted_actions, counted_batch


def main() -> None:
    out = {}
    minres = solver._minres
    actions, batch = _Evaluator.actions, _Evaluator._batch
    for name, (run, seed_range) in SEARCHES.items():
        tally = Counter(solves=0, products=0, most_products=0, capped=0, refused=0)
        batches = {"calls": 0, "largest_trial": 0, "rows": None}
        solver._minres = counting_minres(tally)
        _Evaluator.actions, _Evaluator._batch = counting_batches(batches)
        try:
            seeds = {str(seed): census(run, seed) for seed in seed_range}
        finally:
            solver._minres = minres
            _Evaluator.actions, _Evaluator._batch = actions, batch
        out[name] = {
            "batches": batches,
            "converged_total": sum(row["converged"] for row in seeds.values()),
            "iterations_total": sum(row["iterations"] for row in seeds.values()),
            "minres": dict(tally),
            "seeds": seeds,
        }
    json.dump(out, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
