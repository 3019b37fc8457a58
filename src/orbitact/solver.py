"""Quasi-Newton minimization over loop coefficients, with multistart search.

The descent is a limited-memory BFGS with a backtracking line search that is
aware of the collision barrier: trial points that would cut the minimum
pairwise separation too sharply in a single step are rejected before their
sufficient-decrease test, which keeps the iterates out of the steep inner
wall of the interaction profile. Each trial is evaluated with its gradient,
so the accepted trial becomes the next iterate without a second evaluation.
The discretized action never increases from one accepted step to the next,
so the recorded trace is monotone by construction.

`multistart` fans out over winding classes and perturbed circular starts
(optionally across processes), filters by convergence and by the residual of
the motion equations, and groups duplicates by action value plus
time-shift-minimized H^1 distance.
"""

from __future__ import annotations

import hashlib
import os
import struct
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .action import action as _action
from .action import action_hessian as _action_hessian
# Unused here; kept bound because perfbench/tracing.py and its smoke test look it up by name.
from .action import action_value as _action_value  # noqa: F401
from .errors import CollisionSample, InvalidStart, OrbitactError
from .loopspace import (
    LoopConfiguration,
    default_grid_size,
    h1_distance,
    shift_loop,
)
from .potential import PotentialSpec
from .verify import euler_lagrange_residual

__all__ = [
    "SolveStatus",
    "SolveOptions",
    "SolveReport",
    "descend",
    "OrbitRecord",
    "StartReport",
    "MultistartResult",
    "multistart",
    "dedupe",
    "circular_seed",
    "resolve_workers",
]


# Default problem size, filter and grouping tolerances of multistart and dedupe.
DEFAULT_DIM = 2
DEFAULT_HARMONICS = 8
ACTION_REL_TOL = 1e-6
PATH_TOL = 0.5
EL_RESIDUAL_TOL = 1e-7
TIME_SHIFTS = 256  # uniform time shifts tried when matching loops without modulation
SEED_RADIUS = 0.25  # circular start radius at winding 1, in units of r1


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    STALLED_NEAR_COLLISION = "stalled_near_collision"


@dataclass(frozen=True)
class SolveOptions:
    """Descent controls. step_guard is the largest allowed fractional drop of
    the minimum pairwise separation within one accepted step."""

    max_iters: int = 500
    grad_tol: float = 1e-9
    history_len: int = 10
    seed: int = 0
    step_guard: float = 0.5

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.history_len < 1:
            raise ValueError("history_len must be >= 1")
        if not 0.0 < self.step_guard < 1.0:
            raise ValueError("step_guard must lie strictly between 0 and 1")


@dataclass(frozen=True)
class SolveReport:
    """Terminal state and per-iteration traces of one descent run."""

    final_loop: LoopConfiguration
    status: SolveStatus
    action_value: float
    kinetic: float
    grad_norm: float
    iterations: int
    ps_trace: tuple
    kinetic_trace: tuple
    min_separation_trace: tuple


def _tail_quiet(ps_trace) -> bool:
    """True when f changed by < 1e-12 (1+|f|) over the last five steps."""
    values = [entry[0] for entry in ps_trace[-6:]]
    return all(
        abs(b - a) < 1e-12 * (1.0 + abs(b)) for a, b in zip(values, values[1:])
    )


def _two_loop(history, grad):
    """L-BFGS two-loop recursion over (s, y, s.y) pairs, oldest first; returns H g.

    The initial matrix is gamma I with gamma = s.y / y.y of the newest pair.
    """
    q = grad.copy()
    if not history:
        return q
    stack = []
    for s, y, sy in reversed(history):
        rho = 1.0 / sy
        a = rho * float(s @ q)
        q -= a * y
        stack.append((rho, a, s, y))
    _, last_y, last_sy = history[-1]
    q *= last_sy / float(last_y @ last_y)
    for rho, a, s, y in reversed(stack):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def descend(
    spec: PotentialSpec,
    loop0: LoopConfiguration,
    opts: SolveOptions | None = None,
    n_t: int | None = None,
) -> SolveReport:
    """Minimize the discretized action from loop0; it never increases along the run.

    Line-search trials must (a) sample without exact collisions, (b) keep the
    action finite, (c) not reduce the minimum pairwise separation below
    (1 - step_guard) times its current value, and (d) satisfy an Armijo
    sufficient-decrease test. Each trial is evaluated once, with its
    gradient, and the accepted trial becomes the next iterate. Curvature
    pairs are stored as (s, y, s.y) only when s.y > 1e-10 ||s|| ||y||, and a
    non-descent quasi-Newton direction falls back to steepest descent.

    Near a minimum the achievable decrease per step is quadratic in the
    gradient norm and eventually drops below the floating-point resolution
    of f, where Armijo certification becomes meaningless. When that floor is
    reached (or the line search fails outright), the run switches to a
    Newton polish on the critical-point equation: exact-Hessian steps with
    clipped eigenvalues, accepted only when f does not increase and the
    gradient norm shrinks, which converges through the rounding floor while
    keeping the recorded trace non-increasing. A run that can certify no
    further progress in either phase ends as STALLED_NEAR_COLLISION when
    some trial was rejected by the separation guard, and MAX_ITERS
    otherwise.
    """
    if opts is None:
        opts = SolveOptions()
    if n_t is None:
        n_t = default_grid_size(loop0.harmonics)

    x = loop0.flat()
    try:
        ev = _action(spec, loop0.with_flat(x), n_t)
    except CollisionSample as exc:
        raise InvalidStart("initial loop samples an exact collision") from exc
    if not np.isfinite(ev.value):
        raise InvalidStart("initial loop has non-finite action")
    f = ev.value
    g = ev.gradient
    grad_norm = float(np.linalg.norm(g))
    kinetic = ev.kinetic
    min_sep = ev.min_separation
    guard_active = loop0.n_bodies >= 2

    ps_trace = [(f, grad_norm)]
    kin_trace = [kinetic]
    sep_trace = [min_sep]
    history = deque(maxlen=opts.history_len)  # (s, y, s.y) pairs, oldest first
    c1 = 1e-4
    iterations = 0

    eps_f = float(np.finfo(np.float64).eps)
    status = None
    guard_hit = False

    def trial_guards_ok(f_trial, sep_trial):
        nonlocal guard_hit
        if not np.isfinite(f_trial):
            return False
        if guard_active and sep_trial < (1.0 - opts.step_guard) * min_sep:
            guard_hit = True
            return False
        return True

    while status is None:
        # Quasi-Newton phase with Armijo backtracking.
        want_polish = False
        while True:
            if grad_norm < opts.grad_tol:
                if _tail_quiet(ps_trace):
                    status = SolveStatus.CONVERGED
                    break
                # Converged in gradient but with a noisy trace tail; let the
                # polish phase append settled steps.
                want_polish = True
                break
            if iterations >= opts.max_iters:
                status = SolveStatus.MAX_ITERS
                break

            direction = -_two_loop(history, g)
            slope = float(g @ direction)
            if not slope < 0:
                direction = -g
                slope = -grad_norm * grad_norm
            alpha = 1.0 if history else min(1.0, 1.0 / max(1.0, grad_norm))

            accepted = False
            for _ in range(60):
                x_trial = x + alpha * direction
                try:
                    ev_new = _action(spec, loop0.with_flat(x_trial), n_t)
                except CollisionSample:
                    guard_hit = True
                    alpha *= 0.5
                    continue
                if (
                    trial_guards_ok(ev_new.value, ev_new.min_separation)
                    and ev_new.value <= f + c1 * alpha * slope
                ):
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                want_polish = True
                break

            g_new = ev_new.gradient
            s = x_trial - x
            y = g_new - g
            sy = float(s @ y)
            if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
                history.append((s, y, sy))

            x, f, g = x_trial, ev_new.value, g_new
            grad_norm = float(np.linalg.norm(g))
            kinetic, min_sep = ev_new.kinetic, ev_new.min_separation
            iterations += 1
            ps_trace.append((f, grad_norm))
            kin_trace.append(kinetic)
            sep_trace.append(min_sep)
            if -alpha * slope <= 8.0 * eps_f * (1.0 + abs(f)):
                # Sufficient decrease is no longer representable in f;
                # switch to gradient-certified Newton steps.
                want_polish = True
                break
        if status is not None or not want_polish:
            break

        # Newton polish on the critical-point equation.
        entry_grad = grad_norm
        while iterations < opts.max_iters:
            if grad_norm < opts.grad_tol and _tail_quiet(ps_trace):
                break
            hess = _action_hessian(spec, loop0.with_flat(x), n_t)
            eigvals, eigvecs = np.linalg.eigh(hess)
            floor = max(1e-10, 1e-12 * float(np.abs(eigvals).max()))
            # Modified Newton: |eigenvalue| keeps the step bounded and
            # gradient-reducing near saddles as well as minima.
            step = -(eigvecs @ ((eigvecs.T @ g) / np.maximum(np.abs(eigvals), floor)))
            alpha = 1.0
            accepted = False
            for _ in range(12):
                x_trial = x + alpha * step
                try:
                    ev_trial = _action(spec, loop0.with_flat(x_trial), n_t)
                except CollisionSample:
                    guard_hit = True
                    alpha *= 0.5
                    continue
                if (
                    trial_guards_ok(ev_trial.value, ev_trial.min_separation)
                    and ev_trial.value <= f
                    and (trial_norm := float(np.linalg.norm(ev_trial.gradient))) <= 0.9 * grad_norm
                ):
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                break
            x, f, g, grad_norm = x_trial, ev_trial.value, ev_trial.gradient, trial_norm
            kinetic, min_sep = ev_trial.kinetic, ev_trial.min_separation
            iterations += 1
            ps_trace.append((f, grad_norm))
            kin_trace.append(kinetic)
            sep_trace.append(min_sep)

        if grad_norm < opts.grad_tol:
            status = SolveStatus.CONVERGED
        elif iterations >= opts.max_iters:
            status = SolveStatus.MAX_ITERS
        elif grad_norm <= 0.5 * entry_grad:
            # Real progress: hand back to the quasi-Newton phase with a
            # clean memory.
            history.clear()
        else:
            status = (
                SolveStatus.STALLED_NEAR_COLLISION if guard_hit else SolveStatus.MAX_ITERS
            )

    return SolveReport(
        final_loop=loop0.with_flat(x),
        status=status,
        action_value=f,
        kinetic=kinetic,
        grad_norm=grad_norm,
        iterations=iterations,
        ps_trace=tuple(ps_trace),
        kinetic_trace=tuple(kin_trace),
        min_separation_trace=tuple(sep_trace),
    )


@dataclass(frozen=True)
class OrbitRecord:
    """A converged, residual-checked orbit kept by the multistart search."""

    loop: LoopConfiguration
    action_value: float
    kinetic: float
    grad_norm: float
    el_residual: float
    winding_seed_class: int
    start_index: int
    dedup_key: str = ""


@dataclass(frozen=True)
class StartReport:
    """Pairing of one (winding class, start index) task with its descent."""

    winding_class: int
    start_index: int
    report: SolveReport


@dataclass(frozen=True)
class MultistartResult:
    """Kept orbits plus raw per-start reports and the filter tallies."""

    records: tuple
    reports: tuple
    n_started: int
    n_converged: int
    n_dropped_unconverged: int
    n_dropped_residual: int


def circular_seed(
    spec: PotentialSpec,
    dim: int,
    harmonics: int,
    winding: int,
    start_index: int,
    base_seed: int,
    noise: float = 0.02,
) -> LoopConfiguration:
    """Perturbed rotating start: bodies evenly phased on one circle.

    The circle lives in the span of the first two coordinate axes, populates
    the single harmonic of the requested winding number, and has radius
    SEED_RADIUS * r1 * winding^(-2/(alpha+2)), which shrinks with winding
    the way force balance on the inner branch does. Gaussian noise with
    per-harmonic scale noise * radius / m^2 keeps distinct start indices
    distinct while preserving positive separations.
    """
    if dim < 2:
        raise ValueError("circular seeds need dim >= 2")
    _require_valid_winding(winding, harmonics)
    n = spec.n_bodies
    rng = np.random.default_rng([base_seed, winding, start_index])
    radius = SEED_RADIUS * spec.r1 * float(winding) ** (-2.0 / (spec.alpha + 2.0))
    coeffs = np.zeros((n, harmonics, 2, dim))
    row = (winding - 1) // 2
    for i in range(n):
        phi = 2.0 * np.pi * i / n
        coeffs[i, row, 0, 0] = radius * np.cos(phi)
        coeffs[i, row, 0, 1] = radius * np.sin(phi)
        coeffs[i, row, 1, 0] = -radius * np.sin(phi)
        coeffs[i, row, 1, 1] = radius * np.cos(phi)
    orders = np.arange(1, 2 * harmonics, 2, dtype=float)
    perturbation = rng.standard_normal(coeffs.shape) * (noise * radius)
    perturbation /= orders[None, :, None, None] ** 2
    return LoopConfiguration(n, dim, spec.period, coeffs + perturbation)


def _require_valid_winding(winding, harmonics):
    if not isinstance(winding, (int, np.integer)) or isinstance(winding, bool):
        raise ValueError("winding classes must be integers")
    if winding < 1 or winding % 2 == 0:
        raise ValueError(f"winding classes must be odd and >= 1, got {winding}")
    if winding > 2 * harmonics - 1:
        raise ValueError(
            f"winding class {winding} is not representable with {harmonics} harmonics "
            f"(largest odd order is {2 * harmonics - 1})"
        )


def resolve_workers(explicit: int | None = None, n_tasks: int = 1) -> int:
    """Worker count: explicit argument, else ORBITACT_THREADS, else CPU count.

    ORBITACT_THREADS=0 or unset means automatic; 1 forces serial execution.
    A non-integer or negative value raises OrbitactError.
    """
    if explicit is not None:
        workers = int(explicit)
        if workers < 1:
            raise OrbitactError("workers must be >= 1 when given explicitly")
    else:
        raw = os.environ.get("ORBITACT_THREADS")
        if raw is None or raw.strip() == "":
            workers = os.cpu_count() or 1
        else:
            try:
                workers = int(raw)
            except ValueError:
                raise OrbitactError(
                    f"ORBITACT_THREADS must be a nonnegative integer, got {raw!r}"
                ) from None
            if workers < 0:
                raise OrbitactError(
                    f"ORBITACT_THREADS must be a nonnegative integer, got {raw!r}"
                )
            if workers == 0:
                workers = os.cpu_count() or 1
    return max(1, min(workers, max(n_tasks, 1)))


def _descend_task(payload):
    spec, loop, opts, n_t = payload
    return descend(spec, loop, opts, n_t)


def multistart(
    spec: PotentialSpec,
    winding_classes,
    starts_per_class: int,
    opts: SolveOptions | None = None,
    *,
    dim: int = DEFAULT_DIM,
    harmonics: int = DEFAULT_HARMONICS,
    n_t: int | None = None,
    action_rel_tol: float = ACTION_REL_TOL,
    path_tol: float = PATH_TOL,
    el_residual_tol: float = EL_RESIDUAL_TOL,
    workers: int | None = None,
) -> MultistartResult:
    """Run descents from every (winding class, start index) pair and dedup.

    Identical inputs give identical results regardless of worker count:
    seeds depend only on (opts.seed, winding, start index), the task order is
    fixed, and the pool map preserves it. Starts that fail to converge, or
    converge with a motion-equation residual at or above el_residual_tol,
    are dropped (and tallied); survivors are grouped into orbits.
    """
    if opts is None:
        opts = SolveOptions()
    if starts_per_class < 1:
        raise ValueError("starts_per_class must be >= 1")
    classes = list(winding_classes)
    if not classes:
        raise ValueError("winding_classes must be non-empty")
    for w in classes:
        _require_valid_winding(w, harmonics)

    tasks = [(w, s) for w in classes for s in range(starts_per_class)]
    payloads = [
        (spec, circular_seed(spec, dim, harmonics, w, s, opts.seed), opts, n_t)
        for (w, s) in tasks
    ]
    n_workers = resolve_workers(workers, len(tasks))
    if n_workers == 1:
        raw_reports = [_descend_task(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            raw_reports = list(pool.map(_descend_task, payloads))

    reports = tuple(
        StartReport(winding_class=w, start_index=s, report=rep)
        for (w, s), rep in zip(tasks, raw_reports)
    )
    kept = []
    n_converged = 0
    n_unconverged = 0
    n_residual = 0
    for (w, s), rep in zip(tasks, raw_reports):
        if rep.status is not SolveStatus.CONVERGED:
            n_unconverged += 1
            continue
        n_converged += 1
        residual = euler_lagrange_residual(spec, rep.final_loop, n_t)
        if not residual < el_residual_tol:
            n_residual += 1
            continue
        kept.append(
            OrbitRecord(
                loop=rep.final_loop,
                action_value=rep.action_value,
                kinetic=rep.kinetic,
                grad_norm=rep.grad_norm,
                el_residual=residual,
                winding_seed_class=w,
                start_index=s,
            )
        )

    records = dedupe(
        kept,
        action_rel_tol,
        path_tol,
        half_period_only=spec.modulation_eps > 0,
    )
    return MultistartResult(
        records=tuple(records),
        reports=reports,
        n_started=len(tasks),
        n_converged=n_converged,
        n_dropped_unconverged=n_unconverged,
        n_dropped_residual=n_residual,
    )


def _same_orbit(a: OrbitRecord, b: OrbitRecord, action_rel_tol, path_tol, half_period_only):
    fa, fb = a.action_value, b.action_value
    if abs(fa - fb) > action_rel_tol * (1.0 + max(abs(fa), abs(fb))):
        return False
    count = 2 if half_period_only else TIME_SHIFTS
    taus = [k * a.loop.period / count for k in range(count)]
    return min(h1_distance(shift_loop(a.loop, tau), b.loop) for tau in taus) < path_tol


def _dedup_key(record: OrbitRecord) -> str:
    digest = hashlib.sha256()
    digest.update(struct.pack("<d", float(record.action_value)))
    digest.update(
        np.ascontiguousarray(record.loop.coefficients, dtype=np.float64).tobytes()
    )
    return digest.hexdigest()[:16]


def dedupe(
    records,
    action_rel_tol: float = ACTION_REL_TOL,
    path_tol: float = PATH_TOL,
    *,
    half_period_only: bool = False,
):
    """Group records that agree in action and in shift-minimized H^1 distance.

    Records are scanned in (action, winding, start) order and matched greedily
    against existing groups, so the grouping is deterministic. Two records
    match when their action values differ by at most action_rel_tol relatively
    and the H^1 distance minimized over time shifts (the TIME_SHIFTS = 256
    shifts k T / 256, or just {0, T/2} when the potential's time modulation
    breaks continuous shift freedom) is below path_tol. Each group is
    represented by its member of smallest gradient norm, tagged with a
    content hash.
    """
    ordered = sorted(
        records, key=lambda r: (r.action_value, r.winding_seed_class, r.start_index)
    )
    groups: list[list[OrbitRecord]] = []
    for rec in ordered:
        for group in groups:
            if _same_orbit(group[0], rec, action_rel_tol, path_tol, half_period_only):
                group.append(rec)
                break
        else:
            groups.append([rec])
    out = []
    for group in groups:
        best = min(
            group,
            key=lambda r: (r.grad_norm, r.action_value, r.winding_seed_class, r.start_index),
        )
        out.append(replace(best, dedup_key=_dedup_key(best)))
    out.sort(key=lambda r: (r.action_value, r.winding_seed_class, r.start_index))
    return out
