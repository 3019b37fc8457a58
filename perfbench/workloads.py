"""Benchmark workloads: inputs made from a seed, the timed operation, its check.

Every workload calls the public API of the package in one process and in
series (``workers=1``). ``prepare(seed)`` builds the inputs and returns the
operation to time plus the function that checks its output; the check runs
outside the timed region.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and imports ``orbitact`` from there, so the benchmark always
measures the sources next to it. Without them the import raises ImportError.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "orbitact" / "__init__.py").is_file():
    raise ImportError(f"orbitact sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import orbitact  # noqa: E402
from orbitact.action import action  # noqa: E402
from orbitact.loopspace import default_grid_size  # noqa: E402
from orbitact.potential import PotentialSpec  # noqa: E402
from orbitact.solver import SolveOptions, SolveStatus, circular_seed, multistart  # noqa: E402
from orbitact.verify import euler_lagrange_residual, run_inequality_ledger  # noqa: E402

if Path(orbitact.__file__).resolve().parent != SRC / "orbitact":
    raise ImportError(f"orbitact imported from {orbitact.__file__}, not from {SRC}")

TWO_PI = 2.0 * np.pi
DIM = 2
SEARCH_WINDINGS = (1, 3, 5)
EL_RESIDUAL_TOL = 1e-7  # multistart's default filter
DISTINCT_REL = 1e-6
ORACLE_REL = 1e-4
# Distinct actions of the ring6 search at seed 0, known from earlier runs.
RING6_SEED0_ACTIONS = (59.961961, 192.5617, 320.936166)


def equal_mass_spec(n_bodies: int, modulation_eps: float = 0.0) -> PotentialSpec:
    """The reference problem of the test suite, with n_bodies unit masses."""
    return PotentialSpec(
        masses=np.ones(n_bodies),
        a=1.0,
        g=0.01,
        alpha=2.0,
        theta=1.0,
        r1=2.0,
        r2=3.0,
        modulation_eps=modulation_eps,
        period=TWO_PI,
    )


def distinct_values(values, rel: float = DISTINCT_REL) -> list:
    """Sorted values with neighbours closer than rel (relatively) merged into the first."""
    groups = []
    for value in sorted(values):
        if not groups or abs(value - groups[-1]) > rel * max(abs(value), abs(groups[-1])):
            groups.append(value)
    return groups


def balanced_circle_action(spec: PotentialSpec, winding: int) -> float:
    """Action of two unit masses on antipodal circles in force balance.

    The radius R solves m R w^2 = a alpha m^2 (2R)^(-alpha-1) with
    w = winding 2 pi / T, found by bisection. The loop stays in the inner
    branch, so the action is T w^2 R^2 + T a (2R)^(-alpha) in closed form.
    """
    omega = winding * TWO_PI / spec.period

    def imbalance(radius):
        return omega**2 * radius - spec.a * spec.alpha * (2.0 * radius) ** (-spec.alpha - 1.0)

    lo, hi = 1e-3, 50.0
    while imbalance(lo) > 0:
        lo *= 0.5
    while imbalance(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) < 0:
            lo = mid
        else:
            hi = mid
    radius = 0.5 * (lo + hi)
    return spec.period * omega**2 * radius**2 + spec.period * spec.a * (2.0 * radius) ** (-spec.alpha)


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, reduced to counts, and what its check found.

    units: starts run (search) or ledger checks made (ledger).
    passed: starts converged, or checks passed.
    solutions: starts that passed both the convergence and the residual
        filter, or checks passed.
    distinct: distinct kept action values, or checks passed.
    solver: solver counts of a search, empty for the ledger.
    problems: the reasons the output check failed; empty when it passed.
    """

    units: int
    passed: int
    solutions: int
    distinct: int
    solver: dict = field(default_factory=dict)
    problems: tuple = ()

    def counts(self) -> tuple:
        return (self.units, self.passed, self.solutions, self.distinct, tuple(sorted(self.solver.items())))


def _search_outcome(result, problems) -> Outcome:
    statuses = [start.report.status for start in result.reports]
    return Outcome(
        units=result.n_started,
        passed=result.n_converged,
        solutions=result.n_converged - result.n_dropped_residual,
        distinct=len(distinct_values(r.action_value for r in result.records)),
        solver={
            "iterations": sum(start.report.iterations for start in result.reports),
            "max_iters_starts": statuses.count(SolveStatus.MAX_ITERS),
            "stalled_starts": statuses.count(SolveStatus.STALLED_NEAR_COLLISION),
            "residual_drops": result.n_dropped_residual,
        },
        problems=tuple(problems),
    )


def check_ladder(spec, seed, result) -> list:
    """Each kept action lies within ORACLE_REL of its winding's balanced circle."""
    problems = []
    for record in result.records:
        oracle = balanced_circle_action(spec, record.winding_seed_class)
        rel = abs(record.action_value - oracle) / oracle
        if not rel <= ORACLE_REL:
            problems.append(
                f"winding {record.winding_seed_class}: action {record.action_value!r} "
                f"is {rel:.2e} from the oracle {oracle!r}"
            )
    return problems


def check_ring(spec, seed, result) -> list:
    """Every kept orbit solves the motion equations; seed 0 finds the known actions."""
    problems = []
    for record in result.records:
        residual = euler_lagrange_residual(spec, record.loop)
        if not residual < EL_RESIDUAL_TOL:
            problems.append(f"kept orbit at action {record.action_value!r} has residual {residual:.2e}")
    if seed == 0:
        groups = distinct_values(r.action_value for r in result.records)
        expected = RING6_SEED0_ACTIONS
        if len(groups) != len(expected) or any(
            abs(got - want) > DISTINCT_REL * want for got, want in zip(groups, expected)
        ):
            problems.append(f"seed 0 distinct actions {groups} differ from {list(expected)}")
    return problems


@dataclass(frozen=True)
class Search:
    """One serial multistart over windings {1, 3, 5} on equal masses.

    check(spec, seed, result) returns the problems found in the result.
    """

    name: str
    n_bodies: int
    harmonics: int
    check: Callable[..., list]
    starts_per_class: int = 4
    max_iters: int = 500

    @property
    def n_t(self) -> int:
        return default_grid_size(self.harmonics)

    def shrunk(self) -> "Search":
        return replace(self, starts_per_class=1, max_iters=15)

    def warm_up(self, seed: int) -> None:
        """Build the spec and every start, and evaluate the action once."""
        spec = equal_mass_spec(self.n_bodies)
        starts = [
            circular_seed(spec, DIM, self.harmonics, w, s, seed)
            for w in SEARCH_WINDINGS
            for s in range(self.starts_per_class)
        ]
        action(spec, starts[0])

    def prepare(self, seed: int):
        spec = equal_mass_spec(self.n_bodies)
        opts = SolveOptions(max_iters=self.max_iters, seed=seed)

        def operate():
            return multistart(
                spec,
                SEARCH_WINDINGS,
                self.starts_per_class,
                opts,
                dim=DIM,
                harmonics=self.harmonics,
                workers=1,
            )

        def assess(result) -> Outcome:
            return _search_outcome(result, self.check(spec, seed, result))

        return operate, assess


@dataclass(frozen=True)
class Ledger:
    """One inequality ledger run, as the ``orbitact ledger`` command makes it."""

    name: str
    n_bodies: int
    harmonics: int
    samples: int
    modulation_eps: float = 0.3

    @property
    def n_t(self) -> int:
        return default_grid_size(self.harmonics)

    def shrunk(self) -> "Ledger":
        return replace(self, samples=40)

    def warm_up(self, seed: int) -> None:
        """Build the spec and one loop, and evaluate the action once."""
        spec = equal_mass_spec(self.n_bodies, self.modulation_eps)
        action(spec, circular_seed(spec, DIM, self.harmonics, 1, 0, seed))

    def prepare(self, seed: int):
        spec = equal_mass_spec(self.n_bodies, self.modulation_eps)

        def operate():
            return run_inequality_ledger(spec, DIM, self.harmonics, self.samples, seed)

        def assess(report) -> Outcome:
            passed = sum(check.passed for check in report.checks)
            return Outcome(
                units=len(report.checks),
                passed=passed,
                solutions=passed,
                distinct=passed,
                problems=tuple(
                    f"{check.name}: worst slack {check.worst_slack!r} (tolerance {check.tolerance!r})"
                    for check in report.checks
                    if not check.passed
                ),
            )

        return operate, assess


WORKLOADS = {
    w.name: w
    for w in (
        Search("ladder2", n_bodies=2, harmonics=8, check=check_ladder),
        Search("ring6", n_bodies=6, harmonics=24, check=check_ring),
        Ledger("ledger", n_bodies=4, harmonics=8, samples=5000),
    )
}
