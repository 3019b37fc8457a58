"""Time-modulated strong-force pair potentials with a sub-quadratic tail.

Each ordered pair (i, j) interacts through V_ij(t, xi) = mu(t) m_i m_j w(|xi|)
where the unit-mass radial profile w is

    w(r) = -a r^{-alpha}          for r <  r1   (attractive, strong force)
    w(r) = cubic Hermite blend    for r1 <= r < r2
    w(r) = g r^{theta}            for r >= r2   (growth exponent theta < 2)

and mu(t) = 1 + eps cos(4 pi t / T) is a half-period time modulation, so
V_ij(t + T/2, -xi) = V_ij(t, xi) holds for every pair. The Hermite blend
matches value and one-sided slope at both ends, making the profile C^1 on
(0, inf). A C^0-only linear blend is available as a verification hook.

One kernel, grid_potential, evaluates the potential over a quadrature grid,
graded by derivative order like the profile itself: pair separations, the
collision check, the modulation and one [w, w', w''][:order + 1] profile pass
serve the values, the body forces and the position-space Hessian alike.

The inner branch keeps the classical strong-force barrier: for alpha >= 2
there is a witness function U with U(r) -> -inf as r -> 0+ and
-V_ij(t, r) >= |U'(r)|^2 below r1, with equality at the modulation minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CollisionSample,
    NonPositiveSeparation,
    OutOfWitnessRange,
    SelfPair,
    ShapeMismatch,
)
from .loopspace import body_pairs, pair_separations

__all__ = [
    "PotentialSpec",
    "StrongForceWitness",
    "time_modulation",
    "pair_potential",
    "grid_potential",
    "strong_force_witness",
    "strong_force_margin",
]

BLEND_HERMITE = "hermite"
BLEND_LINEAR = "linear"  # C^0 only; exists so the ledger's C^1 check has teeth


@dataclass(frozen=True)
class PotentialSpec:
    """Parameters of the interaction and the ambient problem.

    Attributes:
        masses: positive body masses, length N.
        a: inner coefficient, > 0.
        g: tail coefficient, > 0.
        alpha: inner decay exponent, >= 2 (strong force).
        theta: tail growth exponent, < 2.
        r1, r2: blend window, 0 < r1 < r2.
        modulation_eps: time modulation amplitude eps in [0, 1).
        period: period T of the modulation (and of the loops), > 0.
        blend: "hermite" (C^1, default) or "linear" (C^0 verification hook).
    """

    masses: np.ndarray
    a: float
    g: float
    alpha: float
    theta: float
    r1: float
    r2: float
    modulation_eps: float
    period: float
    blend: str = BLEND_HERMITE

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size < 1:
            raise ValueError("masses must be a 1-d array with at least one entry")
        if not np.all(masses > 0):
            raise ValueError("masses must all be positive")
        if not self.a > 0:
            raise ValueError(f"inner coefficient a must be positive, got {self.a}")
        if not self.g > 0:
            raise ValueError(f"tail coefficient g must be positive, got {self.g}")
        if not self.alpha >= 2:
            raise ValueError(f"inner exponent alpha must satisfy alpha >= 2, got {self.alpha}")
        if not self.theta < 2:
            raise ValueError(f"tail exponent theta must satisfy theta < 2, got {self.theta}")
        if not (0 < self.r1 < self.r2):
            raise ValueError(f"blend window needs 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")
        if not (0 <= self.modulation_eps < 1):
            raise ValueError(
                f"modulation_eps must lie in [0, 1), got {self.modulation_eps}"
            )
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.blend not in (BLEND_HERMITE, BLEND_LINEAR):
            raise ValueError(f"unknown blend {self.blend!r}")
        masses = masses.copy()
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    @property
    def n_bodies(self) -> int:
        return self.masses.size


def time_modulation(spec: PotentialSpec, t):
    """mu(t) = 1 + eps cos(4 pi t / T); has period T/2, so mu(t + T/2) = mu(t)."""
    t = np.asarray(t)
    return 1.0 + spec.modulation_eps * np.cos((4.0 * np.pi / spec.period) * t)


def _blend_data(spec: PotentialSpec):
    """Unit-mass endpoint values and one-sided slopes of the blend window."""
    v0 = -spec.a * spec.r1 ** (-spec.alpha)
    d0 = spec.alpha * spec.a * spec.r1 ** (-spec.alpha - 1.0)
    v1 = spec.g * spec.r2**spec.theta
    d1 = spec.theta * spec.g * spec.r2 ** (spec.theta - 1.0)
    return v0, d0, v1, d1


def _blend(spec: PotentialSpec, r, order: int = 0) -> list:
    """The blend polynomial on [r1, r2] and its first ``order`` derivatives."""
    v0, d0, v1, d1 = _blend_data(spec)
    h = spec.r2 - spec.r1
    s = (r - spec.r1) / h
    if spec.blend == BLEND_LINEAR:
        return [v0 + (v1 - v0) * s, (v1 - v0) / h + 0.0 * s, 0.0 * s][: order + 1]
    h00 = (2.0 * s - 3.0) * s * s + 1.0
    h10 = ((s - 2.0) * s + 1.0) * s
    h01 = (3.0 - 2.0 * s) * s * s
    h11 = (s - 1.0) * s * s
    out = [h00 * v0 + h10 * (h * d0) + h01 * v1 + h11 * (h * d1)]
    if order >= 1:
        dh00 = 6.0 * s * (s - 1.0)
        dh10 = (3.0 * s - 4.0) * s + 1.0
        dh01 = 6.0 * s * (1.0 - s)
        dh11 = (3.0 * s - 2.0) * s
        out.append((dh00 * v0 + dh01 * v1) / h + dh10 * d0 + dh11 * d1)
    if order >= 2:
        d2h00 = 12.0 * s - 6.0
        d2h10 = 6.0 * s - 4.0
        d2h01 = 6.0 - 12.0 * s
        d2h11 = 6.0 * s - 2.0
        out.append((d2h00 * v0 + d2h01 * v1) / (h * h) + (d2h10 * d0 + d2h11 * d1) / h)
    return out


def _power(coef: float, expo: float, r, order: int) -> list:
    """c r^e and its first ``order`` derivatives, all from one power of r."""
    value = coef * r**expo
    out = [value]
    if order >= 1:
        out.append(expo * value / r)
    if order >= 2:
        out.append(expo * (expo - 1.0) * value / (r * r))
    return out


def _inner(spec: PotentialSpec, r, order: int) -> list:
    return _power(-spec.a, -spec.alpha, r, order)


def _tail(spec: PotentialSpec, r, order: int) -> list:
    return _power(spec.g, spec.theta, r, order)


def _profile(spec: PotentialSpec, r, order: int = 0) -> list:
    """Unit-mass radial profile [w, w', w''][:order + 1] at positive separations.

    One masked pass: each separation takes the branch it lies on. Input on a
    single branch, such as a scalar, is evaluated without gather or scatter.
    """
    r = np.asarray(r)
    inner = r < spec.r1
    tail = r >= spec.r2
    branches = ((inner, _inner), (tail, _tail), (~(inner | tail), _blend))
    for mask, branch in branches:
        if mask.all():
            return branch(spec, r, order)
    out = [np.empty_like(r) for _ in range(order + 1)]
    for mask, branch in branches:
        if mask.any():
            for dst, src in zip(out, branch(spec, r[mask], order)):
                dst[mask] = src
    return out


def _check_pair(spec: PotentialSpec, i: int, j: int):
    n = spec.n_bodies
    if not (0 <= i < n and 0 <= j < n):
        raise ShapeMismatch(f"pair ({i}, {j}) out of range for {n} bodies")
    if i == j:
        raise SelfPair(f"pair potential undefined for i == j == {i}")


def pair_potential(spec: PotentialSpec, t: float, i: int, j: int, r: float) -> float:
    """V_ij(t, r) = mu(t) m_i m_j w(r) for separation r > 0."""
    _check_pair(spec, i, j)
    if not r > 0:
        raise NonPositiveSeparation(f"separation must be positive, got {r}")
    w = _profile(spec, float(r))[0]
    return float(time_modulation(spec, t) * spec.masses[i] * spec.masses[j] * w)


def grid_potential(spec: PotentialSpec, times: np.ndarray, positions: np.ndarray, order: int = 0):
    """[V, grad V, Hessian of V][:order + 1] at every node, and the minimum separation.

    times (n_t,) and positions (n_t, N, k) give the nodes. The body forces
    grad_{x_i} V have shape (n_t, N, k) and the Hessian (n_t, N, k, N, k): per
    pair i < j its block mu m_i m_j (w'' u u^T + (w'/r)(I - u u^T)), with u the
    unit separation, enters blocks (i, i) and (j, j) with +1 and (i, j) and
    (j, i) with -1. Raises CollisionSample if two bodies coincide at a node.
    min_separation is +inf when there are no pairs (N = 1).
    """
    n_t, n, k = positions.shape
    if n != spec.n_bodies:
        raise ShapeMismatch(f"positions have {n} bodies, spec has {spec.n_bodies}")
    iu, ju, incidence = body_pairs(n)
    diff, dist = pair_separations(positions)
    closest = dist.min(initial=np.inf)
    if closest == 0.0:
        raise CollisionSample("two bodies coincide at a quadrature node")
    mass_prod = spec.masses[iu] * spec.masses[ju]
    mu = time_modulation(spec, times)
    profile = _profile(spec, dist, order)
    out = [mu * (profile[0] @ mass_prod)]
    if order >= 1:
        scale = mu[:, None] * mass_prod  # (n_t, P)
        radial = scale * profile[1] / dist
        out.append(incidence @ (radial[..., None] * diff))  # (n_t, N, k)
    if order >= 2:
        _, wp, wpp = profile
        unit = diff / dist[..., None]
        aniso = scale * (wpp - wp / dist)  # u u^T weight
        iso = scale * (wp / dist)  # identity weight
        blocks = aniso[..., None, None] * (unit[..., :, None] * unit[..., None, :])
        blocks += iso[..., None, None] * np.eye(k, dtype=positions.dtype)
        # Sum over pairs of inc[a, p] inc[b, p] blocks[p], as one (N N, P) matmul.
        signs = (incidence[:, None, :] * incidence[None, :, :]).reshape(n * n, -1)
        hess = signs @ blocks.reshape(n_t, -1, k * k)  # (n_t, N N, k k)
        out.append(hess.reshape(n_t, n, n, k, k).transpose(0, 1, 3, 2, 4))
    return out, float(closest)


@dataclass(frozen=True)
class StrongForceWitness:
    """Barrier witness U for the inner branch, valid on 0 < r < r1.

    For alpha = 2 the witness is logarithmic, U(r) = c ln r; for alpha > 2 it
    is the power form U(r) = -c r^{-beta} with beta = (alpha - 2)/2. In both
    cases U(r) -> -inf as r -> 0+ and |U'(r)|^2 equals the modulation minimum
    of -V_ij on the inner branch, so the strong-force inequality is tight.
    """

    form: str  # "log" or "power"
    c: float
    beta: float
    r1: float

    def value(self, r: float) -> float:
        if not 0 < r < self.r1:
            raise OutOfWitnessRange(f"witness valid on (0, {self.r1}), got r={r}")
        if self.form == "log":
            return self.c * float(np.log(r))
        return -self.c * r ** (-self.beta)

    def grad_norm_sq(self, r: float) -> float:
        """|U'(r)|^2, computed from the witness's own constants."""
        if not 0 < r < self.r1:
            raise OutOfWitnessRange(f"witness valid on (0, {self.r1}), got r={r}")
        if self.form == "log":
            return self.c**2 / r**2
        return (self.c * self.beta) ** 2 * r ** (-2.0 * self.beta - 2.0)


def strong_force_witness(spec: PotentialSpec, i: int, j: int) -> StrongForceWitness:
    """Witness for pair (i, j), rescaled by sqrt(1 - eps) to absorb modulation."""
    _check_pair(spec, i, j)
    scale = float(
        np.sqrt((1.0 - spec.modulation_eps) * spec.a * spec.masses[i] * spec.masses[j])
    )
    if spec.alpha == 2.0:
        return StrongForceWitness(form="log", c=scale, beta=0.0, r1=spec.r1)
    beta = 0.5 * (spec.alpha - 2.0)
    return StrongForceWitness(form="power", c=scale / beta, beta=beta, r1=spec.r1)


def strong_force_margin(spec: PotentialSpec, i: int, j: int, r: float) -> float:
    """min_t(-V_ij(t, r)) - |U'(r)|^2 on the inner branch; >= 0, tight at eps = 0.

    The modulation minimum min_t mu(t) = 1 - eps is attained (at t = T/4), so
    the minimum over t is exact rather than sampled.
    """
    _check_pair(spec, i, j)
    if not r > 0:
        raise NonPositiveSeparation(f"separation must be positive, got {r}")
    if r >= spec.r1:
        raise OutOfWitnessRange(f"margin defined below r1={spec.r1}, got r={r}")
    witness = strong_force_witness(spec, i, j)
    w = _profile(spec, float(r))[0]
    neg_v_min = -(1.0 - spec.modulation_eps) * spec.masses[i] * spec.masses[j] * w
    return float(neg_v_min - witness.grad_norm_sq(r))
