"""Quasi-Newton minimization over loop coefficients, with multistart search.

The descent is a limited-memory BFGS, preconditioned by the inverse of the
kinetic diagonal, finished by a Newton polish. Both phases step through one
backtracking line search that is aware of the collision barrier: trial
points that would cut the minimum pairwise separation too sharply in a
single step are rejected before their acceptance test, which keeps the
iterates out of the steep inner wall of the interaction profile.
Each trial is evaluated with its gradient, so the accepted trial becomes the
next iterate without a second evaluation.
The recorded action never increases from one accepted step to the next, so
the trace is monotone by construction; a polish step certified within f's
rounding floor records the gradient's line integral, not its fresh value.
The polish forms no Hessian: it solves for its Newton step by MINRES on
an exact Hessian-vector product, preconditioned by the kinetic diagonal D,
and steps along -D^-1 g, MINRES's own first direction, when the MINRES step
is not a descent direction or shows no positive curvature. MINRES stores no
Lanczos basis: its short recurrences update the solution as it iterates, so
a solve holds a fixed handful of vectors of n floats. The solve is
inexact: it stops at a relative residual estimate of 1e-6, a constant forcing
term (Dembo, Eisenstat & Steihaug 1982). The true residual can be larger, so
no rule may assume it is below that. The step is judged only by its line
search, so the last digits of a tighter solve buy nothing.

Descents run in lockstep. A descent is a generator that yields each trial
point and receives its evaluation, or None when the trial samples an exact
collision. A driver gathers the pending trial of every live descent,
evaluates them as one batch through one action evaluator and sends each
descent its result. At most one evaluator call's rows of descents are live
at once; when one ends, the next pending start joins. A serial
``multistart`` is the lockstep of its starts through that window and
``descend`` the lockstep of one, so there is one descent code path. A
loop's evaluation is the same bit for bit in any batch, which makes a
descent's result independent of the descents it ran beside.

`multistart` fans out over winding classes and perturbed circular starts
(in lockstep, or one ``descend`` per start across processes), filters by
convergence and by the residual of the motion equations, and groups
duplicates by action value plus time-shift-minimized H^1 distance. That
distance comes from per-harmonic cross terms of the two loops, evaluated on
the whole shift grid at once, not from one shifted loop per shift.
The process pool and its imports load on the first run with more than one
worker, so importing this module or running a serial search does not load them;
``hashlib`` loads on the first dedup key the same way.
"""

from __future__ import annotations

import math
import os
import struct
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat

import numpy as np

from .action import _Evaluator
# Unused here; kept bound because perfbench/tracing.py and its smoke test look them up by name.
from .action import action_hessian as _action_hessian  # noqa: F401
from .action import action_value as _action_value  # noqa: F401
from .errors import InvalidStart, OrbitactError
from .loopspace import (
    LoopConfiguration,
    _is_finite_real,
    _is_integer,
    _is_real,
    _require_integer,
    _require_positive,
    _shift_distances_sq,
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
        _require_integer("max_iters", self.max_iters, 1)
        _require_positive("grad_tol", self.grad_tol)
        _require_integer("history_len", self.history_len, 1)
        _require_integer("seed", self.seed, 0)
        if not (_is_real(self.step_guard) and 0.0 < self.step_guard < 1.0):
            raise ValueError("step_guard must lie strictly between 0 and 1")


@dataclass(frozen=True)
class SolveReport:
    """Terminal state and per-iteration traces of one descent run.

    The traces have one row per iterate, the start first, so
    ``iterations + 1`` rows. They are columns of one read-only table per
    run, in the dtype of the run's rows (float64, or longdouble for a
    longdouble loop; a report sent back from a worker process holds
    copies): ps_trace is the (rows, 2) array of (f, grad_norm), and
    kinetic_trace and min_separation_trace are (rows,) arrays. The scalar
    fields are the last row's entries, with their own types.
    """

    final_loop: LoopConfiguration
    status: SolveStatus
    action_value: float
    kinetic: float
    grad_norm: float
    iterations: int
    ps_trace: np.ndarray  # (rows, 2): f, grad_norm
    kinetic_trace: np.ndarray  # (rows,)
    min_separation_trace: np.ndarray  # (rows,)


def _tail_quiet(rows) -> bool:
    """True when f changed by < 1e-12 (1+|f|) over the last five steps of the rows."""
    values = [row[0] for row in rows[-6:]]
    return all(
        abs(b - a) < 1e-12 * (1.0 + abs(b)) for a, b in zip(values, values[1:])
    )


_EIGHT_EPS = 8.0 * float(np.finfo(np.float64).eps)


def _rounding_floor(f: float) -> float:
    """8 eps (1 + |f|): changes of f below this are rounding noise."""
    return _EIGHT_EPS * (1.0 + abs(f))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector; np.linalg.norm computes the same sqrt(v.v)."""
    return math.sqrt(float(v.dot(v)))


def _two_loop(history, grad, dinv):
    """L-BFGS two-loop recursion over (s, y, s.y) pairs, oldest first; returns H g.

    The initial matrix is gamma D^-1, from the inverse dinv of the kinetic
    diagonal D, with gamma = s.y / (y.D^-1 y) of the newest pair; an empty
    history returns D^-1 g. Every axpy forms its scaled vector in one
    scratch buffer.
    """
    if not history:
        return dinv * grad
    q = grad.copy()
    scratch = np.empty_like(q)
    stack = []
    for s, y, sy in reversed(history):
        rho = 1.0 / sy
        a = rho * float(s.dot(q))
        q -= np.multiply(a, y, scratch)
        stack.append((rho, a, s, y))
    _, last_y, last_sy = history[-1]
    gamma = last_sy / float(last_y.dot(np.multiply(dinv, last_y, scratch)))
    q *= np.multiply(gamma, dinv, scratch)
    for rho, a, s, y in reversed(stack):
        b = rho * float(y.dot(q))
        q += np.multiply(a - b, s, scratch)
    return q


# The polish's MINRES stops once its residual estimate is this share of its
# start: an inexact Newton step with a constant forcing term.
_POLISH_RTOL = 1e-6


def _minres(apply, b, minv, maxiter, rtol):
    """Preconditioned MINRES (Paige & Saunders 1975) for the symmetric system A x = b.

    apply(v) returns A v as a new array; minv is the diagonal of the
    symmetric positive definite preconditioner M, an approximation of A^-1.
    A may be indefinite, or singular with b in its range. From x = 0, each
    iteration makes one preconditioned Lanczos vector v_j and one plane
    rotation of the QR factor R of its tridiagonal, whose column j holds the
    diagonal gamma_j and the superdiagonals delta_j and epsilon_j. The
    directions W = V R^-1 follow by the short recurrence
    w_j = (v_j - epsilon_j w_{j-2} - delta_j w_{j-1}) / gamma_j, and
    x += phi_j w_j with phi_j the rotated right-hand side, so no basis is
    stored: a solve holds a fixed handful of n-vectors whatever its number
    of iterations. The iteration stops when the residual estimate
    ||b - A x||_M falls below rtol times ||b||_M, or after maxiter iterations.
    """
    y = minv * b
    beta1 = math.sqrt(float(b.dot(y)))
    x = np.zeros_like(b)
    if beta1 == 0.0:
        return x
    w = w2 = np.zeros_like(b)  # w_{j-1} and w_{j-2}
    r1 = r2 = b
    scratch = np.empty_like(b)
    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    tiny = float(np.finfo(np.float64).eps)
    for itn in range(maxiter):
        v = np.multiply(y, 1.0 / beta)
        y = apply(v)
        if itn:
            y -= np.multiply(r1, beta / oldb, out=scratch)
        alfa = float(v.dot(y))
        y -= np.multiply(r2, alfa / beta, out=scratch)
        r1, r2 = r2, y
        y = minv * r2
        oldb, beta = beta, math.sqrt(float(r2.dot(y)))
        # Apply the last two rotations to the new tridiagonal column, then
        # make the rotation that eliminates its subdiagonal beta.
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), tiny)
        cs, sn = gbar / gamma, beta / gamma
        w, w2 = (v - oldeps * w2 - delta * w) / gamma, w
        x += (cs * phibar) * w
        phibar *= sn
        if phibar <= rtol * beta1:
            break
    return x


def _newton_step(product):
    """The map g -> Newton step at the point of the Hessian product ``product``.

    The step p solves (H + sigma I) p = -g by MINRES, preconditioned by the
    inverse of the kinetic diagonal D, in the product's row layout: g is
    permuted into it once and p out of it once. The solve stops at a
    residual estimate of _POLISH_RTOL = 1e-6 times ||g|| in the D^-1-norm,
    since the line search judges the step. The true residual can be larger
    (4e-6 of ||g|| at a dim-3 minimum when g has rotation components), so
    no rule may assume it is below _POLISH_RTOL. The shift
    sigma = max(1e-10, 1e-12 max D) stands in for a floor of 1e-12 ||H||
    on the curvature the step divides by. It bounds the step along the
    near-null directions of H (the rotations, and at eps = 0 the time
    shift), where the gradient holds only rounding noise; every other
    component changes by at most sigma / |eigenvalue| relatively. When p is
    not a descent direction (g.p >= 0) or shows no positive curvature
    (p.(H + sigma I) p <= 0), the step is -D^-1 g, the direction of MINRES's
    first iteration, which always descends.
    """
    minv = 1.0 / product.kin_rows.reshape(-1)
    shifted = product.shifted(max(1e-10, 1e-12 * float(product.kin_rows.max())))

    def step(g):
        rhs = -product.to_rows(g)
        p = _minres(shifted.rows, rhs, minv, rhs.size, _POLISH_RTOL)
        if rhs.dot(p) > 0 and p.dot(shifted.rows(p)) > 0:
            return product.from_rows(p)
        return product.from_rows(minv * rhs)

    return step


class _Descent:
    """One descent run from loop0: the iterate, its evaluation and one row per iterate.

    Each row is (f, grad_norm, kinetic, min_separation); the start is row 0,
    so the iteration count is the number of rows after it, and f is the
    value the row records (see ``descend``). The run evaluates no
    line-search trial itself: ``solve`` and the phases it delegates to are
    generators that yield each trial point and receive its evaluation (see
    ``search``). The action evaluator bound for the run serves the polish's
    Hessian products; dinv, the inverse of its flattened kinetic diagonal D,
    preconditions the quasi-Newton phase. Runs in lockstep share both.
    """

    def __init__(self, loop0, opts, evaluator, dinv, ev):
        self.loop0 = loop0
        self.evaluator = evaluator
        self.dinv = dinv
        self.opts = opts
        self.guard_hit = False
        self.rows = []
        self.step(loop0.flat(), ev, ev.value)

    @property
    def iterations(self):
        return len(self.rows) - 1

    def step(self, x, ev, f):
        """Make (x, ev) the iterate and record its row with the action value f."""
        self.x, self.ev, self.f = x, ev, f
        self.grad_norm = _norm(ev.gradient)
        self.rows.append((f, self.grad_norm, ev.kinetic, ev.min_separation))

    def search(self, direction, alpha, tries, accept):
        """Try up to tries steps along direction from alpha, halving it after each rejection.

        A generator: it yields each trial point and receives its action
        evaluation, or None when the trial samples an exact collision.
        A trial is rejected when it samples an exact collision or cuts the
        minimum separation below (1 - step_guard) times the current one (both
        set guard_hit), or when its action is not finite; otherwise
        accept(alpha, ev) returns the action value to record for the trial,
        or None to reject it. Returns (alpha, x_trial, ev, value) of the
        first accepted trial, or None.
        """
        bound = (1.0 - self.opts.step_guard) * self.ev.min_separation
        for _ in range(tries):
            x_trial = self.x + alpha * direction
            ev = yield x_trial
            if ev is None:
                self.guard_hit = True
            elif math.isfinite(ev.value):
                if ev.min_separation < bound:
                    self.guard_hit = True
                else:
                    value = accept(alpha, ev)
                    if value is not None:
                        return alpha, x_trial, ev, value
            del ev  # a rejected trial's evaluation is not held while the run waits
            alpha *= 0.5
        return None

    def quasi_newton(self):
        """L-BFGS with Armijo backtracking from an empty memory.

        Returns a status, or None to hand over to the polish.
        """
        opts = self.opts
        history = deque(maxlen=opts.history_len)  # (s, y, s.y) pairs, oldest first
        c1 = 1e-4
        while True:
            if self.grad_norm < opts.grad_tol:
                # Converged in gradient; a noisy trace tail is left to the
                # polish, which appends settled steps.
                return SolveStatus.CONVERGED if _tail_quiet(self.rows) else None
            if self.iterations >= opts.max_iters:
                return SolveStatus.MAX_ITERS

            f, g, grad_norm = self.f, self.ev.gradient, self.grad_norm
            direction = -_two_loop(history, g, self.dinv)
            slope = float(g.dot(direction))
            if not slope < 0:
                direction = -g
                slope = -grad_norm * grad_norm
            alpha = 1.0 if history else min(1.0, 1.0 / max(1.0, grad_norm))
            trial = yield from self.search(
                direction, alpha, 60,
                lambda t, ev: ev.value if ev.value <= f + c1 * t * slope else None,
            )
            if trial is None:
                return None

            alpha, x_trial, ev, value = trial
            s = x_trial - self.x
            y = ev.gradient - g
            sy = float(s.dot(y))
            if sy > 1e-10 * _norm(s) * _norm(y):
                history.append((s, y, sy))
            self.step(x_trial, ev, value)
            if -alpha * slope <= _rounding_floor(value):
                # Sufficient decrease is no longer representable in f;
                # switch to gradient-certified Newton steps.
                return None

    def polish(self):
        """Newton polish on the critical-point equation.

        Returns a status, or None after real progress, to resume the
        quasi-Newton phase with a clean memory.
        """
        opts = self.opts
        entry_grad = self.grad_norm
        newton_step = None
        while self.iterations < opts.max_iters:
            settled = self.grad_norm < opts.grad_tol
            if settled and _tail_quiet(self.rows):
                break
            if not settled or newton_step is None:
                newton_step = _newton_step(self.evaluator.hessp(self.x))
            g = self.ev.gradient
            step = newton_step(g)
            f = self.f
            norm_cap = opts.grad_tol if settled else 0.9 * self.grad_norm

            def accept(t, ev):
                norm = _norm(ev.gradient)
                if not (norm < norm_cap if settled else norm <= norm_cap):
                    return None
                if ev.value <= f:
                    return ev.value
                # Within f's rounding floor, the trapezoid line integral of
                # the gradient certifies the step and gives the recorded value.
                change = 0.5 * t * float((g + ev.gradient).dot(step))
                return f + change if ev.value <= f + _rounding_floor(f) and change <= 0 else None

            trial = yield from self.search(step, 1.0, 12, accept)
            if trial is None:
                break
            self.step(*trial[1:])

        if self.grad_norm < opts.grad_tol:
            return SolveStatus.CONVERGED
        if self.iterations >= opts.max_iters:
            return SolveStatus.MAX_ITERS
        if self.grad_norm <= 0.5 * entry_grad:
            return None
        return SolveStatus.STALLED_NEAR_COLLISION if self.guard_hit else SolveStatus.MAX_ITERS

    def solve(self):
        """Alternate the two phases until one returns a status; return the run's SolveReport.

        A generator that yields and receives as ``search`` does.
        """
        status = None
        while status is None:
            status = (yield from self.quasi_newton()) or (yield from self.polish())
        f, grad_norm, kinetic, _ = self.rows[-1]
        table = np.array(self.rows)
        table.flags.writeable = False
        return SolveReport(
            final_loop=self.loop0.with_flat(self.x),
            status=status,
            action_value=f,
            kinetic=kinetic,
            grad_norm=grad_norm,
            iterations=self.iterations,
            ps_trace=table[:, :2],
            kinetic_trace=table[:, 2],
            min_separation_trace=table[:, 3],
        )


def _lockstep(spec, loops, opts, n_t):
    """One descent per start loop, run in lockstep; their SolveReports, in the order of loops.

    The loops share one shape, and one action evaluator bound to the first
    serves every run. The start loops are evaluated as one batch; the first
    start, in the order of loops, that samples an exact collision or has a
    non-finite action raises InvalidStart. At most ``batch_rows`` runs, the
    rows of one ``_Evaluator.actions`` call, are live at once, so the search
    holds that many L-BFGS memories however many starts it has. Starts join
    from the end of loops, each dropping its start evaluation as it joins:
    ``multistart`` lists its starts by winding class, so given increasing
    windings it starts the longest descents first. Each round gathers the pending line-search trial of every live
    run, evaluates them as one batch and sends each run its evaluation; a
    run leaves when it returns its report, and the next pending start joins
    before the next round. A loop's evaluation is bit for bit the same in
    any batch, so each report equals that of the loop's descent run alone.
    An exception raised in one run propagates and ends them all.
    """
    evaluator = _Evaluator(spec, loops[0], n_t)
    dinv = 1.0 / evaluator.kin_diag.reshape(-1)
    starts = evaluator.actions(np.array([loop0.flat() for loop0 in loops]))
    for ev in starts:
        if ev is None:
            raise InvalidStart("initial loop samples an exact collision")
        if not np.isfinite(ev.value):
            raise InvalidStart("initial loop has non-finite action")
    window = evaluator.batch_rows(len(loops))
    pending = list(range(len(loops)))  # joins from the end
    reports = [None] * len(loops)
    live = []  # (index, run, pending trial point)

    def advance(index, run, ev):
        try:
            live.append((index, run, run.send(ev)))
        except StopIteration as done:
            reports[index] = done.value

    def admit():
        while pending and len(live) < window:
            index = pending.pop()
            ev, starts[index] = starts[index], None
            advance(index, _Descent(loops[index], opts, evaluator, dinv, ev).solve(), None)

    admit()
    while live:
        batch, live = live, []
        evaluations = evaluator.actions(np.array([x for _, _, x in batch]))
        for (index, run, _), ev in zip(batch, evaluations):
            advance(index, run, ev)
        admit()
    return reports


def descend(
    spec: PotentialSpec,
    loop0: LoopConfiguration,
    opts: SolveOptions | None = None,
    n_t: int | None = None,
) -> SolveReport:
    """Minimize the discretized action from loop0; it never increases along the run.

    The run is the lockstep of one start: each round evaluates its one
    pending trial, as a batch of one. A serial ``multistart`` runs many
    starts in the same lockstep, and its report for a start equals this one
    bit for bit.

    Both phases below step through one guarded backtracking line search.
    Its trials must (a) sample without exact collisions, (b) keep the action
    finite, (c) not reduce the minimum pairwise separation below
    (1 - step_guard) times its current value, and (d) pass the phase's own
    acceptance test. Each trial is evaluated once, with its gradient, and
    the accepted trial becomes the next iterate.

    The quasi-Newton phase is L-BFGS with an Armijo sufficient-decrease test
    and up to 60 halvings. Its initial matrix is gamma D^-1, the inverse of
    the kinetic diagonal D = 0.5 T m_i omega_m^2 (the H^1 metric of the loop
    space) scaled by gamma = s.y / (y.D^-1 y) of the newest curvature pair;
    the first step, with no pairs yet, goes along -D^-1 g. Curvature pairs
    are stored as (s, y, s.y) only when s.y > 1e-10 ||s|| ||y||, and a
    non-descent quasi-Newton direction falls back to steepest descent.

    Near a minimum the achievable decrease per step is quadratic in the
    gradient norm and eventually drops below the floating-point resolution
    of f, where Armijo certification becomes meaningless. When that floor is
    reached (or the line search fails outright), the run switches to a
    Newton polish on the critical-point equation: exact-Hessian steps p with
    up to 12 halvings of the step length t. The Hessian H is never formed.
    p solves (H + sigma I) p = -g by preconditioned MINRES (Paige & Saunders
    1975) on the evaluator's Hessian-vector product, with the inverse of the
    kinetic diagonal as preconditioner. MINRES updates its solution by its
    own short recurrences and stores no Lanczos basis, so each solve holds
    a fixed handful of vectors of n floats. MINRES stops when its residual
    estimate falls below 1e-6 of its starting value, or after n iterations
    for n coefficients. That is an inexact Newton step with a constant
    forcing term (Dembo, Eisenstat & Steihaug 1982): the line search below
    judges the step, so a tighter solve buys nothing. The shift
    sigma = max(1e-10, 1e-12 max D) bounds the step along the near-null
    directions of H (the rotations, and at eps = 0 the time shift), where
    the gradient holds only rounding noise. When p is not a descent
    direction (g.p >= 0) or shows no positive curvature
    (p.(H + sigma I) p <= 0), the step is -D^-1 g instead, the direction of
    MINRES's first iteration, which always descends. A trial is accepted
    only when its gradient norm is at most 0.9 times the current one and either its action f_trial <= f, or f_trial rises by at most
    f's rounding floor, 8 eps (1 + |f|), while the trapezoid line integral of
    the gradient, 0.5 t (g + g_trial).p, is <= 0. Here f is the value the
    current row records. The row of the trial records f_trial in the first
    case and f + 0.5 t (g + g_trial).p in the second, so the recorded trace
    never increases and each row stays within f's rounding floor of the
    action at its iterate. Once the gradient norm is below grad_tol but the
    trace's tail is not yet quiet, the polish reuses its last Hessian-vector
    product and accepts the steps that keep the gradient norm below
    grad_tol, until the tail is quiet. A polish that halves the gradient norm hands back to the
    quasi-Newton phase with an empty memory. A run that can certify no
    further progress in either phase ends as
    STALLED_NEAR_COLLISION when some trial was rejected by the separation
    guard or sampled a collision, and MAX_ITERS otherwise.
    """
    if opts is None:
        opts = SolveOptions()
    return _lockstep(spec, [loop0], opts, n_t)[0]


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
    distinct while preserving positive separations. dim, harmonics,
    start_index and base_seed must be integers (bools do not count), the last
    two >= 0, and noise a finite real number >= 0 (not a bool); anything else
    raises ValueError.
    """
    _require_integer("dim", dim)
    _require_integer("harmonics", harmonics)
    _require_integer("start_index", start_index, 0)
    _require_integer("base_seed", base_seed, 0)
    if not (_is_finite_real(noise) and noise >= 0):
        raise ValueError(f"noise must be a finite real number >= 0, not {noise!r}")
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
    if not _is_integer(winding):
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
    A non-integer or negative ORBITACT_THREADS raises OrbitactError, and so
    does an explicit argument that is not an integer (a float, a bool or a
    string) or is below 1.
    """
    if explicit is not None:
        if not _is_integer(explicit) or explicit < 1:
            raise OrbitactError(
                f"workers must be an integer >= 1 when given explicitly, got {explicit!r}"
            )
        workers = int(explicit)
    else:
        raw = os.environ.get("ORBITACT_THREADS")
        if raw is None or raw.strip() == "":
            workers = os.cpu_count() or 1
        else:
            try:
                workers = int(raw)
                if workers < 0:
                    raise ValueError(raw)
            except ValueError:
                raise OrbitactError(
                    f"ORBITACT_THREADS must be a nonnegative integer, got {raw!r}"
                ) from None
            if workers == 0:
                workers = os.cpu_count() or 1
    return max(1, min(workers, max(n_tasks, 1)))


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

    With one worker the descents run in lockstep: each round evaluates the
    pending line-search trials of the live starts as one batch through one
    action evaluator bound for the search, and at most one batch's rows of
    starts are live at once (see ``_lockstep``). With more, a process pool maps
    ``descend`` over the starts. Identical inputs give identical results
    regardless of worker count: seeds depend only on (opts.seed, winding,
    start index), a loop's evaluation does not depend on the batch it is in,
    the task order is fixed, and the pool map preserves it. An exception in
    one start ends the whole search. Starts that fail to converge, or
    converge with a motion-equation residual at or above el_residual_tol,
    are dropped (and tallied); survivors are grouped into orbits. The three
    tolerances must be finite and positive, as a run configuration requires;
    :func:`circular_seed` checks dim, harmonics and the winding classes
    before any start runs.
    """
    if opts is None:
        opts = SolveOptions()
    _require_integer("starts_per_class", starts_per_class, 1)
    classes = list(winding_classes)
    if not classes:
        raise ValueError("winding_classes must be non-empty")
    _require_positive("action_rel_tol", action_rel_tol)
    _require_positive("path_tol", path_tol)
    _require_positive("el_residual_tol", el_residual_tol)

    tasks = [(w, s) for w in classes for s in range(starts_per_class)]
    seeds = [circular_seed(spec, dim, harmonics, w, s, opts.seed) for (w, s) in tasks]
    n_workers = resolve_workers(workers, len(tasks))
    if n_workers == 1:
        raw_reports = _lockstep(spec, seeds, opts, n_t)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            raw_reports = list(pool.map(descend, repeat(spec), seeds, repeat(opts), repeat(n_t)))

    reports = []
    kept = []
    n_converged = 0
    n_residual = 0
    for (w, s), rep in zip(tasks, raw_reports):
        reports.append(StartReport(winding_class=w, start_index=s, report=rep))
        if rep.status is not SolveStatus.CONVERGED:
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
        reports=tuple(reports),
        n_started=len(tasks),
        n_converged=n_converged,
        n_dropped_unconverged=len(tasks) - n_converged,
        n_dropped_residual=n_residual,
    )


def _same_orbit(a: OrbitRecord, b: OrbitRecord, action_rel_tol, path_tol, half_period_only):
    fa, fb = a.action_value, b.action_value
    if abs(fa - fb) > action_rel_tol * (1.0 + max(abs(fa), abs(fb))):
        return False
    shifts = 2 if half_period_only else TIME_SHIFTS
    return _shift_distances_sq(a.loop, b.loop, shifts).min() < path_tol * path_tol


def _dedup_key(record: OrbitRecord) -> str:
    import hashlib

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
    breaks continuous shift freedom) is below path_tol. The squared distance
    on that grid is E - 2 (cos(tau omega).P + sin(tau omega).Q), from the
    loops' H^1 energies E and per-harmonic cross terms P, Q, and its minimum
    is compared with path_tol^2. Each group is represented by its member of
    smallest gradient norm, tagged with a content hash. Both tolerances must
    be finite and positive.
    """
    _require_positive("action_rel_tol", action_rel_tol)
    _require_positive("path_tol", path_tol)
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
