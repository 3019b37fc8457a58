"""Lagrangian action of a loop and its exact gradient in coefficient space.

The functional is f(X) = sum_i (m_i/2) int |xdot_i|^2 dt - int V(t, x(t)) dt.
The kinetic term is evaluated in closed form through orthogonality; the
potential integral uses the periodic trapezoid rule on n_t uniform nodes,
which on a circle is just the node average times T. The gradient returned is
the exact derivative of this discretized functional with respect to the
flattened Fourier coefficients (body-major, harmonic-minor, cosine before
sine), so a finite-difference check against ``action`` converges without any
quadrature-mismatch floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loopspace
from .errors import ShapeMismatch
from .loopspace import LoopConfiguration
from .potential import PotentialSpec, grid_potential, grid_potential_hessian

__all__ = ["ActionEvaluation", "action", "action_value", "action_hessian"]


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


def _check_compatible(spec: PotentialSpec, loop: LoopConfiguration):
    if spec.n_bodies != loop.n_bodies:
        raise ShapeMismatch(
            f"spec has {spec.n_bodies} masses but loop has {loop.n_bodies} bodies"
        )
    if float(spec.period) != float(loop.period):
        raise ShapeMismatch(
            f"spec period {spec.period} differs from loop period {loop.period}"
        )


def _kinetic_diagonal(spec: PotentialSpec, grid: loopspace.FourierGrid, loop: LoopConfiguration):
    """D = 0.5 T m_i omega_m^2 in coefficient shape (N, M, 1, 1).

    The kinetic term is 0.5 sum D c^2 over the coefficients c, so its
    gradient is D c and its Hessian the diagonal D.
    """
    return 0.5 * loop.period * spec.masses[:, None, None, None] * (grid.omega**2)[:, None, None]


def _evaluate(
    spec: PotentialSpec,
    loop: LoopConfiguration,
    n_t: int | None,
    need_gradient: bool,
):
    _check_compatible(spec, loop)
    grid = loopspace.quadrature_grid(loop, n_t)
    n_t = grid.times.shape[0]
    positions = loopspace.sample_trajectory(loop, n_t)
    values, forces, min_sep = grid_potential(spec, grid.times, positions, need_forces=need_gradient)
    weight = loop.period / n_t
    # No float() casts: evaluating a higher-precision loop must yield a
    # higher-precision value, or finite-difference oracles lose their floor.
    potential_integral = weight * values.sum()

    grad_kin = _kinetic_diagonal(spec, grid, loop) * loop.coefficients
    kinetic = 0.5 * (grad_kin * loop.coefficients).sum()
    value = kinetic - potential_integral

    gradient = None
    if need_gradient:
        projected = grid.basis @ forces.reshape(n_t, -1)  # (2M, N k)
        grad_pot = projected.reshape(loop.harmonics, 2, loop.n_bodies, loop.dim).transpose(2, 0, 1, 3)
        gradient = (grad_kin - weight * grad_pot).reshape(-1)
    return value, gradient, kinetic, potential_integral, min_sep


def action(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None) -> ActionEvaluation:
    """Evaluate the discretized action and its exact gradient.

    Raises CollisionSample if two bodies coincide at a quadrature node and
    GridTooCoarse if n_t < 4M + 1.
    """
    value, gradient, kinetic, pot, min_sep = _evaluate(spec, loop, n_t, need_gradient=True)
    return ActionEvaluation(
        value=value,
        gradient=gradient,
        kinetic=kinetic,
        potential_integral=pot,
        min_separation=min_sep,
    )


def action_value(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None):
    """Value-only fast path used by line searches: (value, kinetic, min_separation)."""
    value, _, kinetic, _, min_sep = _evaluate(spec, loop, n_t, need_gradient=False)
    return value, kinetic, min_sep


def action_hessian(
    spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None
) -> np.ndarray:
    """Exact Hessian of the discretized action in flat coefficient order.

    The kinetic block is the constant diagonal of :func:`_kinetic_diagonal`; the
    potential block conjugates the per-node position-space Hessian of V by
    the trigonometric basis with the quadrature weight. Shape (n, n) with
    n = N*M*2*k.
    """
    _check_compatible(spec, loop)
    grid = loopspace.quadrature_grid(loop, n_t)
    n_t = grid.times.shape[0]
    positions = loopspace.sample_trajectory(loop, n_t)
    node_hess = grid_potential_hessian(spec, grid.times, positions)
    n_rows, n_pos = grid.basis.shape[0], loop.n_bodies * loop.dim
    weight = loop.period / n_t
    # Node sum of basis[a] basis[b] H_j as one matmul: (a b, j) @ (j, (i d)(p e)).
    row_products = (grid.basis[:, None, :] * grid.basis[None, :, :]).reshape(-1, n_t)
    pot_block = weight * (row_products @ node_hess.reshape(n_t, n_pos * n_pos))
    # Axes (m, c, n, f, i, d, p, e) -> flat coefficient order (i m c d, p n f e).
    pot_block = pot_block.reshape(
        loop.harmonics, 2, loop.harmonics, 2, loop.n_bodies, loop.dim, loop.n_bodies, loop.dim
    ).transpose(4, 0, 1, 5, 6, 2, 3, 7)

    n_flat = n_rows * n_pos
    hess = -pot_block.reshape(n_flat, n_flat)
    kin_diag = np.broadcast_to(_kinetic_diagonal(spec, grid, loop), loop.coefficients.shape)
    hess[np.arange(n_flat), np.arange(n_flat)] += kin_diag.reshape(-1)
    return hess
