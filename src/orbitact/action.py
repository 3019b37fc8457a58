"""Lagrangian action of a loop, its exact gradient and Hessian in coefficient space.

The functional is f(X) = sum_i (m_i/2) int |xdot_i|^2 dt - int V(t, x(t)) dt.
The kinetic term is evaluated in closed form through orthogonality; the
potential integral uses the periodic trapezoid rule on n_t uniform nodes,
which on a circle is just the node average times T. The gradient returned is
the exact derivative of this discretized functional with respect to the
flattened Fourier coefficients (body-major, harmonic-minor, cosine before
sine), so a finite-difference check against ``action`` converges without any
quadrature-mismatch floor; the Hessian is the exact derivative of that gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import loopspace
from .errors import ShapeMismatch
from .loopspace import LoopConfiguration
from .potential import PotentialSpec, grid_potential

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


def _evaluate(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None, order: int):
    """([value, gradient, Hessian][:order + 1], kinetic, potential integral, min separation).

    Derivatives are in flat coefficient order; the potential part of each is
    the matching grid_potential term projected onto the basis with weight T/n_t.
    """
    _check_compatible(spec, loop)
    grid = loopspace.quadrature_grid(loop, n_t)
    n_t = grid.times.shape[0]
    positions = loopspace.sample_trajectory(loop, n_t)
    terms, min_sep = grid_potential(spec, grid.times, positions, order)
    weight = loop.period / n_t
    # No float() casts: evaluating a higher-precision loop must yield a
    # higher-precision value, or finite-difference oracles lose their floor.
    potential_integral = weight * terms[0].sum()

    kin_diag = _kinetic_diagonal(spec, grid, loop)
    grad_kin = kin_diag * loop.coefficients
    kinetic = 0.5 * (grad_kin * loop.coefficients).sum()
    out = [kinetic - potential_integral]

    n_pos = loop.n_bodies * loop.dim
    if order >= 1:
        projected = grid.basis @ terms[1].reshape(n_t, n_pos)  # (2M, N k)
        grad_pot = projected.reshape(loop.harmonics, 2, loop.n_bodies, loop.dim).transpose(2, 0, 1, 3)
        out.append((grad_kin - weight * grad_pot).reshape(-1))
    if order >= 2:
        # Node sum of basis[a] basis[b] H_j as one matmul: (a b, j) @ (j, (i d)(p e)).
        row_products = (grid.basis[:, None, :] * grid.basis[None, :, :]).reshape(-1, n_t)
        pot_block = weight * (row_products @ terms[2].reshape(n_t, n_pos * n_pos))
        # Axes (m, c, n, f, i, d, p, e) -> flat coefficient order (i m c d, p n f e).
        pot_block = pot_block.reshape(
            loop.harmonics, 2, loop.harmonics, 2, loop.n_bodies, loop.dim, loop.n_bodies, loop.dim
        ).transpose(4, 0, 1, 5, 6, 2, 3, 7)
        n_flat = loop.coefficients.size
        hess = -pot_block.reshape(n_flat, n_flat)
        hess[np.diag_indices(n_flat)] += np.broadcast_to(kin_diag, loop.coefficients.shape).reshape(-1)
        out.append(hess)
    return out, kinetic, potential_integral, min_sep


def action(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None) -> ActionEvaluation:
    """Evaluate the discretized action and its exact gradient.

    Raises CollisionSample if two bodies coincide at a quadrature node and
    GridTooCoarse if n_t < 4M + 1.
    """
    (value, gradient), kinetic, pot, min_sep = _evaluate(spec, loop, n_t, 1)
    return ActionEvaluation(
        value=value,
        gradient=gradient,
        kinetic=kinetic,
        potential_integral=pot,
        min_separation=min_sep,
    )


def action_value(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None):
    """Value-only fast path used by line searches: (value, kinetic, min_separation)."""
    (value,), kinetic, _, min_sep = _evaluate(spec, loop, n_t, 0)
    return value, kinetic, min_sep


def action_hessian(spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None) -> np.ndarray:
    """Exact Hessian of the discretized action in flat coefficient order, shape (n, n)."""
    return _evaluate(spec, loop, n_t, 2)[0][2]
