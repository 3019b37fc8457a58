"""Time-modulated strong-force pair potentials with a sub-quadratic tail.

Each ordered pair (i, j) interacts through V_ij(t, xi) = mu(t) m_i m_j w(|xi|)
where the unit-mass radial profile w is

    w(r) = -a r^{-alpha}          for r <  r1   (attractive, strong force)
    w(r) = cubic Hermite blend    for r1 <= r < r2
    w(r) = g r^{theta}            for r >= r2   (growth exponent theta < 2)

and mu(t) = 1 + eps cos(4 pi t / T) is a half-period time modulation, so
V_ij(t + T/2, -xi) = V_ij(t, xi) holds for every pair. The blend is a cubic
in s = (r - r1) / (r2 - r1) whose four coefficients PotentialSpec binds once.
The Hermite coefficients match value and one-sided slope at both ends, making
the profile C^1 on (0, inf); the C^0-only linear blend, a verification hook,
is the same cubic with c = (v0, v1 - v0, 0, 0).

One kernel, grid_potential, evaluates the potential over a quadrature grid,
graded by derivative order like the profile itself: pair separations, the
collision check, the modulation and one [w, w', w''][:order + 1] profile pass
serve the values, the body forces and the position-space Hessian alike.
Positions with leading batch axes evaluate a stack of loops on one grid in
one call, each loop's terms equal to its single call bit for bit.

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
from .loopspace import _is_finite_real, _real_array, _require_integer, body_pairs, pair_separations

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

    Constants a to period must be finite reals (Python or numpy, not bools,
    and integers within the float range); anything else raises ValueError
    naming the field.

    Attributes:
        masses: positive finite real body masses, length N (anything else,
            complex values and strings included, raises ValueError).
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
        masses = _real_array(self.masses)
        if masses is None:
            raise ValueError(f"masses must be finite real numbers, got {self.masses!r}")
        masses = masses.astype(float)
        if masses.ndim != 1 or masses.size < 1:
            raise ValueError("masses must be a 1-d array with at least one entry")
        if not np.all((masses > 0) & np.isfinite(masses)):
            raise ValueError("masses must all be positive and finite")
        for name in ("a", "g", "alpha", "theta", "r1", "r2", "modulation_eps", "period"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ValueError(f"{name} must be finite and real, got {value!r}")
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
            raise ValueError(
                f"blend must be {BLEND_HERMITE!r} or {BLEND_LINEAR!r}, got {self.blend!r}"
            )
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        # Derived, not a field: bound once so no profile pass recomputes it.
        object.__setattr__(self, "_blend_cubic", _blend_cubic(self))

    @property
    def n_bodies(self) -> int:
        return self.masses.size


def time_modulation(spec: PotentialSpec, t):
    """mu(t) = 1 + eps cos(4 pi t / T); has period T/2, so mu(t + T/2) = mu(t)."""
    t = np.asarray(t)
    return 1.0 + spec.modulation_eps * np.cos((4.0 * np.pi / spec.period) * t)


def _blend_data(spec: PotentialSpec):
    """Unit-mass endpoint values and one-sided slopes of the blend window.

    Returns (v0, d0, v1, d1, h), with h = r2 - r1 the window width.
    """
    v0 = -spec.a * spec.r1 ** (-spec.alpha)
    d0 = spec.alpha * spec.a * spec.r1 ** (-spec.alpha - 1.0)
    v1 = spec.g * spec.r2**spec.theta
    d1 = spec.theta * spec.g * spec.r2 ** (spec.theta - 1.0)
    return v0, d0, v1, d1, spec.r2 - spec.r1


def _blend_cubic(spec: PotentialSpec):
    """The blend as a cubic in s = (r - r1) / h: coefficients (c0, c1, c2, c3) and h.

    Raises ValueError when an endpoint value, slope or coefficient overflows
    a float, as finite but extreme constants can make it.
    """
    try:
        v0, d0, v1, d1, h = _blend_data(spec)
    except OverflowError:  # a Python float power overflowed
        v0 = d0 = v1 = d1 = h = np.inf
    if spec.blend == BLEND_LINEAR:
        coef = (v0, v1 - v0, 0.0, 0.0)
    else:
        hd0, hd1 = h * d0, h * d1
        coef = (v0, hd0, 3.0 * (v1 - v0) - 2.0 * hd0 - hd1, 2.0 * (v0 - v1) + hd0 + hd1)
    if not np.all(np.isfinite(coef)):
        raise ValueError(
            f"the blend on [r1={spec.r1}, r2={spec.r2}) overflows a float "
            f"(a={spec.a}, g={spec.g}, alpha={spec.alpha}, theta={spec.theta})"
        )
    return coef, h


def _blend(spec: PotentialSpec, r, order: int = 0) -> list:
    """The blend cubic on [r1, r2] and its first ``order`` derivatives, by Horner's rule."""
    coef, h = spec._blend_cubic
    s = (r - spec.r1) / h
    out = []
    for _ in range(order + 1):
        acc = coef[-1]
        for c in coef[-2::-1]:
            acc = acc * s + c
        out.append(acc)
        coef = [k * c / h for k, c in enumerate(coef)][1:]  # d/dr = (1/h) d/ds
    return out


def _power(coef: float, expo: float, r, order: int) -> list:
    """c r^e and its first ``order`` derivatives, all from one power of r.

    The power is scaled by c in place, and e c r^e divided by r in place, so
    order 1 allocates no array beyond the two it returns.
    """
    value = r**expo
    value *= coef
    out = [value]
    if order >= 1:
        slope = expo * value
        slope /= r
        out.append(slope)
    if order >= 2:
        out.append(expo * (expo - 1.0) * value / (r * r))
    return out


def _inner(spec: PotentialSpec, r, order: int) -> list:
    return _power(-spec.a, -spec.alpha, r, order)


def _tail(spec: PotentialSpec, r, order: int) -> list:
    return _power(spec.g, spec.theta, r, order)


def _profile(spec: PotentialSpec, r, order: int = 0) -> list:
    """Unit-mass radial profile [w, w', w''][:order + 1] at positive separations.

    All-inner input, the common case, takes the inner branch alone. Any
    other input evaluates each branch only on its own separations, r[mask],
    so no branch sees a separation it cannot take, and writes the results
    into one output array per derivative order, in the dtype the branches
    produce. Each entry equals the scalar call on that separation bit for bit.
    """
    r = np.asarray(r)
    inner = r < spec.r1
    if inner.all():
        return _inner(spec, r, order)
    tail = r >= spec.r2
    out = []
    for mask, branch in ((inner, _inner), (tail, _tail), (~(inner | tail), _blend)):
        for d, values in enumerate(branch(spec, r[mask], order)):
            if d == len(out):
                out.append(np.empty(r.shape, values.dtype))
            out[d][mask] = values
    return out


def _check_pair(spec: PotentialSpec, i: int, j: int):
    """Raise unless i != j are body indices of spec: integers (not bools) in [0, N)."""
    _require_integer("i", i)
    _require_integer("j", j)
    n = spec.n_bodies
    if not (0 <= i < n and 0 <= j < n):
        raise ShapeMismatch(f"pair ({i}, {j}) out of range for {n} bodies")
    if i == j:
        raise SelfPair(f"pair potential undefined for i == j == {i}")


def _float_if_scalar(value):
    """value as a Python float when it is a scalar, else the array unchanged."""
    return float(value) if np.ndim(value) == 0 else value


def pair_potential(spec: PotentialSpec, t, i: int, j: int, r):
    """V_ij(t, r) = mu(t) m_i m_j w(r) for separation r > 0.

    t and r may be arrays with leading batch axes; they broadcast against each
    other and give an array of values. Scalars give a float. Each entry equals
    the scalar call on that (t, r) bit for bit.
    """
    _check_pair(spec, i, j)
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise NonPositiveSeparation(f"separation must be positive, got {r.min()}")
    w = _profile(spec, r)[0]
    return _float_if_scalar(time_modulation(spec, t) * spec.masses[i] * spec.masses[j] * w)


class _PairKernel:
    """The position-independent part of grid_potential for one spec on one time grid.

    Binds the pair incidence matrix, the pair mass products m_i m_j, the
    modulation mu(t) on the grid and their product mu m_i m_j, so a caller
    that evaluates many positions on one grid (a descent's line-search
    trials) computes them once.
    """

    def __init__(self, spec: PotentialSpec, times: np.ndarray):
        iu, ju, self.incidence = body_pairs(spec.n_bodies)
        self.mass_prod = spec.masses[iu] * spec.masses[ju]
        self.mu = time_modulation(spec, times)
        self.scale = self.mu[:, None] * self.mass_prod  # (n_t, P)


def grid_potential(
    spec: PotentialSpec,
    times: np.ndarray,
    positions: np.ndarray,
    order: int = 0,
    *,
    kernel: _PairKernel | None = None,
):
    """[V, grad V, Hessian of V][:order + 1] at every node, and the minimum separation.

    times (n_t,) and positions (n_t, N, k) give the nodes. The body forces
    grad_{x_i} V have shape (n_t, N, k) and the Hessian (n_t, N, k, N, k): per
    pair i < j its block mu m_i m_j (w'' u u^T + (w'/r)(I - u u^T)), with u the
    unit separation, enters blocks (i, i) and (j, j) with +1 and (i, j) and
    (j, i) with -1. Raises CollisionSample if two bodies coincide at a node.
    min_separation is +inf when there are no pairs (N = 1). kernel, when
    given, is _PairKernel(spec, times) bound beforehand.

    Positions (..., n_t, N, k) with leading batch axes stack loops sampled on
    the same grid. Every term then has the same leading axes, each block equal
    to the single call bit for bit, and min_separation is an array over them;
    CollisionSample is raised when any loop of the batch collides.

    The order-1 temporaries are reused in place: the radial weight
    mu m_i m_j w'/r is formed as scale * w' and then divided by r in place,
    and at order 1 the pair forces overwrite the separations, which nothing
    reads after them. Order 2 writes the forces to a new array, since its
    unit vectors read the separations.
    """
    *batch, n_t, n, k = positions.shape
    if n != spec.n_bodies:
        raise ShapeMismatch(f"positions have {n} bodies, spec has {spec.n_bodies}")
    if kernel is None:
        kernel = _PairKernel(spec, times)
    diff, dist = pair_separations(positions)
    closest = dist.min(axis=(-2, -1), initial=np.inf)
    if (closest == 0.0).any():
        raise CollisionSample("two bodies coincide at a quadrature node")
    profile = _profile(spec, dist, order)
    out = [kernel.mu * (profile[0] @ kernel.mass_prod)]
    if order >= 1:
        scale = kernel.scale
        radial = scale * profile[1]
        radial /= dist
        # Order 1 reads diff no further, so the pair forces overwrite it.
        forces = np.multiply(radial[..., None], diff, out=diff if order == 1 else None)
        out.append(kernel.incidence @ forces)  # (..., n_t, N, k)
    if order >= 2:
        _, wp, wpp = profile
        incidence = kernel.incidence
        unit = diff / dist[..., None]
        aniso = scale * (wpp - wp / dist)  # u u^T weight
        iso = scale * (wp / dist)  # identity weight
        blocks = aniso[..., None, None] * (unit[..., :, None] * unit[..., None, :])
        blocks += iso[..., None, None] * np.eye(k, dtype=positions.dtype)
        # Sum over pairs of inc[a, p] inc[b, p] blocks[p], as one (N N, P) matmul.
        signs = (incidence[:, None, :] * incidence[None, :, :]).reshape(n * n, -1)
        hess = signs @ blocks.reshape(*batch, n_t, -1, k * k)  # (..., n_t, N N, k k)
        out.append(hess.reshape(*batch, n_t, n, n, k, k).swapaxes(-3, -2))
    return out, _float_if_scalar(closest)


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

    def grad_norm_sq(self, r):
        """|U'(r)|^2, computed from the witness's own constants.

        r may be an array, which gives an array. The power of r is the C
        library's pow (np.float_power), as for a Python float, so each entry
        equals the scalar call bit for bit; numpy's ``**`` on arrays rounds
        differently.
        """
        r = np.asarray(r, dtype=float)
        if not np.all((0 < r) & (r < self.r1)):
            raise OutOfWitnessRange(f"witness valid on (0, {self.r1}), got r={r}")
        if self.form == "log":
            return _float_if_scalar(self.c**2 / np.float_power(r, 2.0))
        return _float_if_scalar(
            (self.c * self.beta) ** 2 * np.float_power(r, -2.0 * self.beta - 2.0)
        )


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


def strong_force_margin(spec: PotentialSpec, i: int, j: int, r):
    """min_t(-V_ij(t, r)) - |U'(r)|^2 on the inner branch; >= 0, tight at eps = 0.

    The modulation minimum min_t mu(t) = 1 - eps is attained (at t = T/4), so
    the minimum over t is exact rather than sampled. An array r gives an
    array whose entries equal the scalar calls bit for bit; a scalar gives a
    float.
    """
    _check_pair(spec, i, j)
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise NonPositiveSeparation(f"separation must be positive, got {r.min()}")
    if np.any(r >= spec.r1):
        raise OutOfWitnessRange(f"margin defined below r1={spec.r1}, got r={r.max()}")
    witness = strong_force_witness(spec, i, j)
    w = _profile(spec, r)[0]
    neg_v_min = -(1.0 - spec.modulation_eps) * spec.masses[i] * spec.masses[j] * w
    return _float_if_scalar(neg_v_min - witness.grad_norm_sq(r))
