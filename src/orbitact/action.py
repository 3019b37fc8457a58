"""Lagrangian action of a loop, its exact gradient and Hessian in coefficient space.

The functional is f(X) = sum_i (m_i/2) int |xdot_i|^2 dt - int V(t, x(t)) dt.
The kinetic term is evaluated in closed form through orthogonality; the
potential integral uses the periodic trapezoid rule on n_t uniform nodes,
which on a circle is just the node average times T. The gradient returned is
the exact derivative of this discretized functional with respect to the
flattened Fourier coefficients (body-major, harmonic-minor, cosine before
sine), so a finite-difference check against ``action`` converges without any
quadrature-mismatch floor. An evaluator's ``hessp`` applies the Hessian, the
exact derivative of that gradient, to vectors; ``action_hessian`` stacks them.
``_Evaluator`` is the only code that evaluates the potential on a loop: it
serves value, gradient, Hessian-vector product and the Euler-Lagrange
residual through one sampling step, and the public functions each bind one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import loopspace
from .errors import CollisionSample, ShapeMismatch
from .loopspace import LoopBatch, LoopConfiguration
from .potential import PotentialSpec, _PairKernel, grid_potential

__all__ = ["ActionEvaluation", "action", "action_value", "action_hessian"]

# Pair-nodes (rows x n_t x pairs) per batched call of _Evaluator.actions,
# which bounds the arrays of one grid_potential call. N = 6, M = 24 loops
# (1575 pair-nodes each) go 3 to a call, N = 2, M = 8 loops (41 each) 121.
# Measured on a 2-vCPU VM (Python 3.11.7, numpy 2.4.6) at N = 6, M = 24:
# four calls of 3 loops instead of two of 6 take the tracemalloc peak of an
# order-1 round of the 12 circular starts from 0.589 to 0.356 MiB, and the
# minor page faults of a warm ring6 search (seeds 0, 13, 35, 50) from
# 6.0k-6.9k to 0.15k-0.21k, because glibc no longer trims and regrows its
# heap between the calls. At 6_400 (4 loops a call) a search still faulted
# about 5k times, and at 3_200 (2 loops) it took 4.6% longer. Rows are
# evaluated independently, so no result depends on it. The same row count
# is the window of a serial lockstep, the most descents it keeps live, so it
# also bounds how many L-BFGS memories a search holds (solver._lockstep).
ACTION_PAIR_NODES = 5_000


@dataclass(frozen=True)
class ActionEvaluation:
    """Action value, its coefficient-space gradient, and bookkeeping terms.

    value == kinetic - potential_integral. min_separation is the smallest
    pairwise distance seen on the quadrature grid (+inf for a single body).
    """

    value: float
    gradient: np.ndarray
    kinetic: float
    potential_integral: float
    min_separation: float


def _kinetic_diagonal(spec: PotentialSpec, grid: loopspace.FourierGrid, loop: LoopConfiguration):
    """D = 0.5 T m_i omega_m^2 in coefficient shape (N, M, 2, k), C-contiguous.

    The kinetic term is 0.5 sum D c^2 over the coefficients c, so its
    gradient is D c and its Hessian the diagonal D.
    """
    diag = 0.5 * loop.period * spec.masses[:, None, None, None] * (grid.omega**2)[:, None, None]
    return np.broadcast_to(diag, loop.coefficients.shape).copy()


class _HessianProduct:
    """v -> H v with the action Hessian H at one point, without forming H.

    A vector enters as a (2M, N k) matrix V in the basis's row layout (rows
    harmonic and cos/sin, columns body and coordinate). One basis matmul
    samples V at the nodes, one batched matmul applies each node's (N k, N k)
    potential Hessian, prescaled by -T/n_t, one basis matmul projects back,
    and the kinetic diagonal adds D V. ``rows`` works on flat vectors in
    this layout, so an iterative solver permutes its right-hand side into it
    once and its solution out of it once, with ``to_rows`` and
    ``from_rows``. Calling the product applies H in flat coefficient order.
    """

    def __init__(self, basis: np.ndarray, node_blocks: np.ndarray, kin_rows: np.ndarray, shape):
        self.basis = basis
        self.node_blocks = node_blocks  # (n_t, N k, N k), times -T/n_t
        self.kin_rows = kin_rows  # (2M, N k)
        self.shape = shape

    def to_rows(self, v: np.ndarray) -> np.ndarray:
        """Flat coefficient order (i, m, c, d) -> flat row layout (m, c, i, d)."""
        return v.reshape(self.shape).transpose(1, 2, 0, 3).reshape(-1)

    def from_rows(self, v: np.ndarray) -> np.ndarray:
        """The inverse permutation of ``to_rows``."""
        n_bodies, harmonics, _, dim = self.shape
        return v.reshape(harmonics, 2, n_bodies, dim).transpose(2, 0, 1, 3).reshape(-1)

    def rows(self, v: np.ndarray) -> np.ndarray:
        """H v for a flat vector v in the row layout, returned in the same layout."""
        rows = v.reshape(self.kin_rows.shape)
        sampled = self.basis.T @ rows  # (n_t, N k)
        out = self.basis @ np.matmul(self.node_blocks, sampled[:, :, None])[:, :, 0]
        out += self.kin_rows * rows
        return out.reshape(-1)

    def shifted(self, sigma: float) -> "_HessianProduct":
        """The product with H + sigma I, which shares this one's node blocks."""
        return _HessianProduct(self.basis, self.node_blocks, self.kin_rows + sigma, self.shape)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """H v in flat coefficient order."""
        return self.from_rows(self.rows(self.to_rows(v)))


class _Evaluator:
    """The discretized action of loops shaped like one template loop, bound once.

    Binding checks the template against spec, looks up its quadrature grid
    and builds the kinetic diagonal and the grid's pair kernel; ``evaluate``,
    ``hessp`` and ``residual`` then take only a flat coefficient vector and
    sample it through ``_sample``, so repeated evaluations (a descent's
    line-search trials) repeat none of that work and build no
    LoopConfiguration. ``evaluate`` also takes a stack of such vectors along
    leading axes and evaluates them as one batch through the same kernels;
    each loop's result equals its single evaluation bit for bit, whatever the
    other loops of the batch, their number or its place. ``actions``
    evaluates the line-search trials of many descents this way.
    """

    def __init__(self, spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None):
        if spec.n_bodies != loop.n_bodies or float(spec.period) != float(loop.period):
            raise ShapeMismatch(
                f"spec (N={spec.n_bodies}, T={spec.period}) does not fit the loop "
                f"(N={loop.n_bodies}, T={loop.period})"
            )
        self.spec = spec
        self.period = loop.period
        self.grid = loopspace.quadrature_grid(loop, n_t)
        self.n_t = self.grid.times.shape[0]
        self.shape = loop.coefficients.shape
        self.size = loop.coefficients.size
        self.weight = loop.period / self.n_t
        self.kin_diag = _kinetic_diagonal(spec, self.grid, loop)
        self.pair_kernel = _PairKernel(spec, self.grid.times)

    def _sample(self, x: np.ndarray, order: int):
        """(x as a LoopBatch, grid_potential's terms up to order, min separation).

        The one sampling path: sample_trajectory, then the bound pair kernel.
        x is checked as LoopConfiguration checks coefficients: a wrong size
        or a non-finite entry raises ShapeMismatch.
        """
        if x.shape[-1] != self.size:
            raise ShapeMismatch(f"flat vector has {x.shape[-1]} entries, expected {self.size}")
        if not np.isfinite(x).all():
            raise ShapeMismatch("coefficients must be finite")
        loops = LoopBatch(self.period, x.reshape(*x.shape[:-1], *self.shape))
        positions = loopspace.sample_trajectory(loops, self.n_t)
        terms, min_sep = grid_potential(
            self.spec, self.grid.times, positions, order, kernel=self.pair_kernel
        )
        return loops, terms, min_sep

    def evaluate(self, x: np.ndarray, order: int):
        """([value, gradient][:order + 1], kinetic, potential integral, min separation) at x.

        order is 0 or 1. x is a flat coefficient vector in the template's
        layout, or a stack of them along leading axes, which gives every
        result those leading axes. The gradient is in flat coefficient
        order; its potential part is grid_potential's order-1 term projected
        onto the basis with weight T/n_t. Every sum over a loop's nodes or
        coefficients runs along the last axis, and every product is stacked
        per loop, so a batch sums each loop in the order of its single
        evaluation.
        """
        loops, terms, min_sep = self._sample(x, order)
        coefficients = loops.coefficients
        grid, weight, n_t = self.grid, self.weight, self.n_t
        batch = coefficients.shape[:-4]
        # No float() casts: evaluating a higher-precision loop must yield a
        # higher-precision value, or finite-difference oracles lose their floor.
        potential_integral = weight * terms[0].sum(axis=-1)

        grad_kin = self.kin_diag * coefficients
        kinetic = 0.5 * (grad_kin * coefficients).reshape(*batch, -1).sum(axis=-1)
        out = [kinetic - potential_integral]

        n_bodies, harmonics, _, dim = self.shape
        n_pos = n_bodies * dim
        if order >= 1:
            # The (2M, N k) projection scaled in place by T/n_t; grad_kin, not
            # needed after this, takes the difference.
            projected = grid.basis @ terms[1].reshape(*batch, n_t, n_pos)
            projected *= weight
            grad_pot = (
                projected.reshape(*batch, harmonics, 2, n_bodies, dim)
                .swapaxes(-2, -3)
                .swapaxes(-3, -4)
            )
            out.append(np.subtract(grad_kin, grad_pot, out=grad_kin).reshape(*batch, -1))
        return out, kinetic, potential_integral, min_sep

    def hessp(self, x: np.ndarray) -> _HessianProduct:
        """The product v -> H v with the action Hessian at x (checked as ``evaluate`` checks it).

        The node blocks of grid_potential's order-2 term are computed here,
        once per x; each product then costs two basis matmuls and one
        batched (N k, N k) product per node.
        """
        _, terms, _ = self._sample(x, 2)
        n_bodies, _, _, dim = self.shape
        n_pos = n_bodies * dim
        node_blocks = -self.weight * terms[2].reshape(self.n_t, n_pos, n_pos)
        kin_rows = self.kin_diag.transpose(1, 2, 0, 3).reshape(-1, n_pos)
        return _HessianProduct(self.grid.basis, node_blocks, kin_rows, self.shape)

    def residual(self, x: np.ndarray) -> float:
        """:func:`verify.euler_lagrange_residual` at the flat vector x.

        Normalized by loopspace.kinetic_energy, which rounds unlike 0.5 sum D c^2.
        """
        loops, (_, forces), _ = self._sample(x, 1)
        acc = loopspace.sample_acceleration(loops, self.n_t)
        res = self.spec.masses[:, None] * acc + forces
        l2 = math.sqrt(float(self.weight * (res**2).sum()))
        return l2 / (1.0 + loopspace.kinetic_energy(loops, self.spec.masses))

    def action(self, x: np.ndarray) -> ActionEvaluation:
        """:func:`action` at the flat coefficient vector x."""
        (value, gradient), *rest = self.evaluate(x, 1)
        return ActionEvaluation(value, gradient, *rest)

    def batch_rows(self, count: int) -> int:
        """The rows of one batched call of :meth:`actions` among count rows.

        As many rows as fit in ACTION_PAIR_NODES pair-nodes (rows x n_t x
        pairs), at least one, or all count rows when the loops have no pairs.
        A serial lockstep of count starts keeps this many descents live.
        """
        pair_nodes = self.n_t * self.pair_kernel.mass_prod.size
        return max(1, ACTION_PAIR_NODES // pair_nodes if pair_nodes else count)

    def actions(self, xs: np.ndarray) -> list:
        """:func:`action` at each row of the (B, n) stack xs, or None where a row samples a collision.

        The rows are evaluated in consecutive batches of ``batch_rows(B)``
        rows. When a batch raises CollisionSample, its rows are evaluated
        again one by one, so only the colliding rows give None. Each gradient
        is copied out of its batch, so a kept evaluation holds no other row's
        data.
        """
        rows = self.batch_rows(len(xs))
        return [
            evaluation
            for start in range(0, len(xs), rows)
            for evaluation in self._batch(xs[start : start + rows])
        ]

    def _batch(self, xs: np.ndarray) -> list:
        """:meth:`actions` on rows evaluated as one batch, then one by one if it collides."""
        try:
            (values, gradients), kinetics, potentials, min_seps = self.evaluate(xs, 1)
        except CollisionSample:
            if len(xs) == 1:
                return [None]
            return [self._batch(x[None])[0] for x in xs]
        return [
            ActionEvaluation(
                value=values[b],
                gradient=gradients[b].copy(),
                kinetic=kinetics[b],
                potential_integral=potentials[b],
                min_separation=float(min_seps[b]),
            )
            for b in range(len(xs))
        ]


def action(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None) -> ActionEvaluation:
    """Evaluate the discretized action and its exact gradient.

    Raises CollisionSample if two bodies coincide at a quadrature node,
    ValueError if n_t is not an integer and GridTooCoarse if n_t < 4M + 1.
    """
    return _Evaluator(spec, loop, n_t).action(loop.flat())


def action_value(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None):
    """Value-only path for oracles and checks: (value, kinetic, min_separation)."""
    (value,), kinetic, _, min_sep = _Evaluator(spec, loop, n_t).evaluate(loop.flat(), 0)
    return value, kinetic, min_sep


def action_hessian(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None) -> np.ndarray:
    """Exact Hessian of the discretized action in flat coefficient order, shape (n, n).

    Column j is the ``hessp`` product at the loop applied to the j-th unit
    vector, in the loop's dtype. Built by columns, it holds only the result
    at full size.
    """
    x = loop.flat()
    product = _Evaluator(spec, loop, n_t).hessp(x)
    hess = np.empty((x.size, x.size), dtype=x.dtype)
    unit = np.zeros_like(x)
    for j in range(x.size):
        unit[j] = 1
        hess[:, j] = product(unit)
        unit[j] = 0
    return hess
