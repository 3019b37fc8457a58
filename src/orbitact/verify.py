"""Independent checks on orbits and on the inequality infrastructure.

Everything here is diagnostic: residuals of the motion equations on candidate
orbits, algebraic identities and inequalities the potential and loop
representation are supposed to satisfy, an explicit coercivity bound for
sublevel sets of the action, and a collision blow-up probe. The checks are
deliberately computed through routes independent of the code paths they
audit wherever that is meaningful (e.g. the strong-force margin evaluates the
witness from its own constants rather than reusing the potential formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import loopspace
from .action import _check_compatible, action as _action
from .errors import SingleBody, ThetaOutOfRange
from .loopspace import LoopConfiguration
from .potential import (
    PotentialSpec,
    _blend,
    _blend_data,
    _profile,
    grid_potential,
    pair_potential,
    strong_force_margin,
)

__all__ = [
    "euler_lagrange_residual",
    "check_pairwise_identity",
    "check_holder_bound",
    "check_wirtinger",
    "wirtinger_kinetic_side",
    "check_modulation_symmetry",
    "check_blend_c1",
    "solve_energy_bound",
    "coercivity_constants",
    "coercivity_bound",
    "BlowupProbe",
    "collision_blowup_probe",
    "LedgerCheck",
    "LedgerReport",
    "run_inequality_ledger",
]


def euler_lagrange_residual(
    spec: PotentialSpec, loop: LoopConfiguration, n_t: int | None = None
) -> float:
    """Normalized L^2 residual of m_i xddot_i + grad_{x_i} V along the loop.

    The grid L^2 norm sqrt((T/n_t) sum_j sum_i |res_i(t_j)|^2) is divided by
    (1 + kinetic) so the figure is comparable across energy scales. Zero for
    an exact solution of the motion equations.
    """
    _check_compatible(spec, loop)
    grid = loopspace.quadrature_grid(loop, n_t)
    n_t = grid.times.shape[0]
    positions = loopspace.sample_trajectory(loop, n_t)
    acc = loopspace.sample_acceleration(loop, n_t)
    (_, forces), _ = grid_potential(spec, grid.times, positions, 1)
    res = spec.masses[None, :, None] * acc + forces
    l2 = math.sqrt(float((loop.period / n_t) * (res**2).sum()))
    kinetic = loopspace.kinetic_energy(loop, spec.masses)
    return l2 / (1.0 + kinetic)


def check_pairwise_identity(masses: np.ndarray, positions: np.ndarray) -> float:
    """|LHS - RHS| of the weighted pairwise-distance identity.

    sum_{i<j} m_i m_j |x_i - x_j|^2
        == (sum_i m_i)(sum_i m_i |x_i|^2) - |sum_i m_i x_i|^2.
    """
    masses = np.asarray(masses, dtype=float)
    positions = np.asarray(positions, dtype=float)
    n = masses.size
    iu, ju = np.triu_indices(n, k=1)
    sq = ((positions[iu] - positions[ju]) ** 2).sum(axis=1)
    lhs = float((masses[iu] * masses[ju] * sq).sum())
    total = masses.sum()
    weighted = float((masses * (positions**2).sum(axis=1)).sum())
    center = (masses[:, None] * positions).sum(axis=0)
    rhs = total * weighted - float((center**2).sum())
    return abs(lhs - rhs)


def check_holder_bound(masses: np.ndarray, positions: np.ndarray, theta: float) -> float:
    """Slack RHS - LHS of the pairwise power-sum upper bound.

    LHS = sum_{i<j} m_i m_j r_ij^theta,
    RHS = (sum m_i m_j)^{(2-theta)/2} (sum m_i m_j r_ij^2)^{theta/2}.

    The bound LHS <= RHS holds for theta in [0, 2) (it is Holder's inequality
    with exponents 2/(2-theta) and 2/theta). For theta < 0 the power mean runs
    the other way and the slack can be negative; the function still reports it.
    """
    if theta >= 2:
        raise ThetaOutOfRange(f"bound requires theta < 2, got {theta}")
    masses = np.asarray(masses, dtype=float)
    positions = np.asarray(positions, dtype=float)
    iu, ju = np.triu_indices(masses.size, k=1)
    w = masses[iu] * masses[ju]
    rsq = ((positions[iu] - positions[ju]) ** 2).sum(axis=1)
    lhs = float((w * rsq ** (theta / 2.0)).sum())
    rhs = float(w.sum() ** ((2.0 - theta) / 2.0) * (w @ rsq) ** (theta / 2.0))
    return rhs - lhs


def check_wirtinger(loop: LoopConfiguration) -> np.ndarray:
    """Per-body slack (T/2pi)^2 ||xdot_i||^2 - ||x_i||^2 in L^2, shape (N,).

    Through the coefficient sums the slack is (T/2) sum_m (m^2 - 1) E_{i,m}
    with E the harmonic energies, so it is nonnegative and vanishes exactly
    when only the first harmonic is populated. Computed termwise to avoid
    cancellation between harmonics.
    """
    energies = loopspace.harmonic_energies(loop)
    scaled = (loop.period / (2.0 * np.pi)) * loop.angular_frequencies()
    factors = scaled**2 - 1.0  # m^2 - 1 up to roundoff in the frequency product
    return 0.5 * loop.period * (energies @ factors)


def wirtinger_kinetic_side(loop: LoopConfiguration) -> np.ndarray:
    """Per-body (T/2pi)^2 ||xdot_i||^2, the large side of the comparison."""
    scale = (loop.period / (2.0 * np.pi)) ** 2
    return scale * loopspace.velocity_l2_norms_squared(loop)


def check_modulation_symmetry(
    spec: PotentialSpec, i: int, j: int, t: float, xi: np.ndarray
) -> float:
    """Normalized |V_ij(t + T/2, -xi) - V_ij(t, xi)|; zero by construction."""
    xi = np.asarray(xi, dtype=float)
    v_a = pair_potential(spec, t, i, j, float(np.linalg.norm(xi)))
    v_b = pair_potential(spec, t + 0.5 * spec.period, i, j, float(np.linalg.norm(-xi)))
    return abs(v_b - v_a) / (1.0 + abs(v_a))


def check_blend_c1(spec: PotentialSpec) -> float:
    """Worst relative one-sided value/slope mismatch of the blend at r1 and r2.

    The C^1 Hermite blend matches all four constraints to roundoff; the C^0
    linear hook fails the slope comparisons unless the endpoint slopes happen
    to agree.
    """
    v0, d0, v1, d1 = _blend_data(spec)
    ends = np.asarray([spec.r1, spec.r2])
    blend_vals, blend_slopes = _blend(spec, ends, 1)
    worst = 0.0
    for got, want in (
        (blend_vals[0], v0),
        (blend_vals[1], v1),
        (blend_slopes[0], d0),
        (blend_slopes[1], d1),
    ):
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return worst


def solve_energy_bound(C: float, B: float, theta: float, K: float) -> float:
    """Largest E >= 0 with E - C E^{theta/2} - B <= K, by bracketed bisection.

    phi(E) = E - C E^{theta/2} - B tends to +inf since theta < 2, so the
    sublevel set {phi <= K} is bounded; its supremum is the returned A. When
    no E >= 0 satisfies the inequality the bound is vacuous and 0 is returned.
    Closed forms are used when the equation is linear in E (C = 0 or theta = 0).
    """
    if theta >= 2:
        raise ThetaOutOfRange(f"energy bound requires theta < 2, got {theta}")
    if C < 0 or B < 0:
        raise ValueError("constants C and B must be nonnegative")
    if C == 0.0:
        return max(K + B, 0.0)
    if theta == 0.0:
        return max(K + C + B, 0.0)
    if theta == 1.0:
        # Quadratic in u = sqrt(E): u^2 - C u - (B + K) = 0.
        discriminant = C * C + 4.0 * (B + K)
        if discriminant < 0.0:
            return 0.0
        root = 0.5 * (C + math.sqrt(discriminant))
        return root * root

    half = theta / 2.0

    def phi(e: float) -> float:
        return e - C * e**half - B

    if theta > 0:
        # phi dips to a single interior minimum then increases; the largest
        # root lies right of the minimizer.
        e_min = (C * half) ** (1.0 / (1.0 - half))
        if phi(e_min) > K:
            return 0.0
        lo = e_min
    else:
        # theta < 0: phi is strictly increasing with phi(0+) = -inf.
        lo = 1.0
        while phi(lo) > K:
            lo *= 0.5
            if lo < 1e-300:
                return 0.0
    hi = max(2.0 * lo, 1.0)
    while phi(hi) <= K:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("energy bound bracket diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if phi(mid) <= K:
            lo = mid
        else:
            hi = mid
    return lo


def coercivity_constants(spec: PotentialSpec) -> tuple[float, float]:
    """Constants (C, B) of the sublevel-set energy bound E - C E^{theta/2} - B.

    C collects the tail estimate: the pairwise power-sum bound, the L^2 to
    velocity comparison on antiperiodic loops, and the time-integral power
    mean, inflated by the modulation maximum (1 + eps). B bounds the
    contribution of pairs inside the band [0, r2] through the grid maximum of
    |V| over t and r in [1e-3 r1, r2] times the number of pairs.
    """
    masses = spec.masses
    n = spec.n_bodies
    iu, ju = np.triu_indices(n, k=1)
    sum_pair = float((masses[iu] * masses[ju]).sum())
    sum_mass = float(masses.sum())
    theta = spec.theta
    T = spec.period
    C = (
        spec.g
        * (1.0 + spec.modulation_eps)
        * sum_pair ** ((2.0 - theta) / 2.0)
        * sum_mass ** (theta / 2.0)
        * (T / (2.0 * np.pi)) ** theta
        * T ** (1.0 - theta / 2.0)
        * 2.0 ** (theta / 2.0)
    )
    r_lo = 1e-3 * spec.r1
    r_grid = np.concatenate(
        [np.geomspace(r_lo, spec.r2, 2048), np.asarray([spec.r1, spec.r2])]
    )
    profile_max = float(np.abs(_profile(spec, r_grid)[0]).max())
    pair_mass_max = float((masses[iu] * masses[ju]).max()) if n >= 2 else 0.0
    b_max = (1.0 + spec.modulation_eps) * pair_mass_max * profile_max
    B = 0.5 * (n * n - n) * b_max
    return float(C), float(B)


def coercivity_bound(spec: PotentialSpec, K: float) -> float:
    """Upper bound A(K) on kinetic energy over the action sublevel {f <= K}."""
    C, B = coercivity_constants(spec)
    return solve_energy_bound(C, B, spec.theta, K)


@dataclass(frozen=True)
class BlowupProbe:
    """Action values along a family of shrinking two-body circles."""

    separations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("separations", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self.values) > 0))

    @property
    def final_value(self) -> float:
        return float(self.values[-1])


def collision_blowup_probe(spec: PotentialSpec, j_max: int = 20) -> BlowupProbe:
    """Evaluate the action on first-harmonic pair circles of separation 2^-j.

    Uses the first two masses of the spec. With the strong-force inner branch
    the values must increase without bound as the separation halves, which is
    the computable face of the collision barrier.
    """
    if spec.n_bodies < 2:
        raise SingleBody("blow-up probe needs at least two bodies")
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    pair_spec = replace(spec, masses=np.asarray(spec.masses[:2]))
    seps = 2.0 ** -np.arange(1, j_max + 1, dtype=float)
    values = []
    for half_sep in 0.5 * seps:
        coeffs = np.zeros((2, 1, 2, 2))
        coeffs[0, 0, 0, 0] = half_sep
        coeffs[0, 0, 1, 1] = half_sep
        coeffs[1] = -coeffs[0]
        loop = LoopConfiguration(2, 2, spec.period, coeffs)
        values.append(_action(pair_spec, loop).value)
    return BlowupProbe(separations=seps, values=np.asarray(values))


@dataclass(frozen=True)
class LedgerCheck:
    """Outcome of one sampled inequality check."""

    name: str
    samples: int
    worst_slack: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "samples", int(self.samples))
        object.__setattr__(self, "worst_slack", float(self.worst_slack))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "worst_slack": self.worst_slack,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class LedgerReport:
    """All inequality checks of one ledger run."""

    checks: tuple
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _random_loop(rng, n_bodies: int, dim: int, harmonics: int, period: float, first_only=False):
    shape = (n_bodies, harmonics, 2, dim)
    coeffs = rng.standard_normal(shape)
    orders = np.arange(1, 2 * harmonics, 2, dtype=float)
    coeffs /= orders[None, :, None, None] ** 2
    if first_only:
        coeffs[:, 1:] = 0.0
    return LoopConfiguration(n_bodies, dim, period, coeffs)


def run_inequality_ledger(
    spec: PotentialSpec,
    dim: int,
    harmonics: int,
    n_samples: int,
    seed: int,
) -> LedgerReport:
    """Sample every ledger check n_samples times with a seeded generator.

    With n_samples = 0 every check reports vacuously (zero samples, pass);
    callers are expected to warn in that case.
    """
    rng = np.random.default_rng(seed)
    n = n_samples
    checks = []

    # Pairwise-distance identity over random masses and positions.
    worst = 0.0
    for _ in range(n):
        bodies = int(rng.integers(2, 7))
        masses = rng.uniform(0.1, 3.0, size=bodies)
        positions = rng.normal(scale=1.5, size=(bodies, dim))
        lhs_scale = 1.0 + float(
            (np.add.outer(masses, masses) * ((positions[:, None] - positions[None, :]) ** 2).sum(-1)).sum()
        )
        worst = max(worst, check_pairwise_identity(masses, positions) / lhs_scale)
    checks.append(LedgerCheck("pairwise_identity", n, worst, 1e-10, worst <= 1e-10))

    # Pairwise power-sum upper bound, exponents in the valid band [0, 2).
    theta_grid = [0.0, 0.5, 1.0, 1.5, 1.9]
    if 0.0 <= spec.theta < 2.0:
        theta_grid.append(spec.theta)
    worst = np.inf if n else 0.0
    for idx in range(n):
        bodies = int(rng.integers(2, 7))
        masses = rng.uniform(0.1, 3.0, size=bodies)
        positions = rng.normal(scale=1.5, size=(bodies, dim))
        theta = theta_grid[idx % len(theta_grid)]
        slack = check_holder_bound(masses, positions, theta)
        iu, ju = np.triu_indices(bodies, k=1)
        w = masses[iu] * masses[ju]
        rsq = ((positions[iu] - positions[ju]) ** 2).sum(axis=1)
        rhs = w.sum() ** ((2 - theta) / 2) * (w @ rsq) ** (theta / 2)
        worst = min(worst, slack / (1.0 + rhs))
    checks.append(
        LedgerCheck("holder_upper_bound", n, float(worst), 1e-12, (not n) or worst >= -1e-12)
    )

    # Wirtinger comparison on random loops, plus tightness at pure first harmonic.
    worst = np.inf if n else 0.0
    worst_eq = 0.0
    for idx in range(n):
        loop = _random_loop(rng, spec.n_bodies, dim, harmonics, spec.period, first_only=(idx % 4 == 0))
        slack = check_wirtinger(loop)
        scale = 1.0 + wirtinger_kinetic_side(loop)
        worst = min(worst, float((slack / scale).min()))
        if idx % 4 == 0:
            worst_eq = max(worst_eq, float((np.abs(slack) / scale).max()))
    checks.append(LedgerCheck("wirtinger", n, float(worst), 1e-12, (not n) or worst >= -1e-12))
    checks.append(
        LedgerCheck("wirtinger_first_harmonic", (n + 3) // 4, worst_eq, 1e-12, worst_eq <= 1e-12)
    )

    # Strong-force margin on a log grid below r1.
    pair_spec = spec if spec.n_bodies >= 2 else replace(
        spec, masses=np.asarray([spec.masses[0], spec.masses[0]])
    )
    worst = np.inf if n else 0.0
    for _ in range(n):
        r = float(np.exp(rng.uniform(np.log(1e-8 * spec.r1), np.log(spec.r1 * (1 - 1e-12)))))
        margin = strong_force_margin(pair_spec, 0, 1, r)
        v_scale = (
            (1.0 - spec.modulation_eps)
            * pair_spec.masses[0]
            * pair_spec.masses[1]
            * spec.a
            * r**-spec.alpha
        )
        worst = min(worst, margin / max(v_scale, 1e-300))
    checks.append(
        LedgerCheck("strong_force_margin", n, float(worst), 1e-12, (not n) or worst >= -1e-12)
    )

    # Half-period reflection symmetry of the modulated pair potential.
    worst = 0.0
    for _ in range(n):
        t = float(rng.uniform(0.0, spec.period))
        xi = rng.normal(size=dim)
        xi = xi / max(np.linalg.norm(xi), 1e-12) * float(rng.uniform(0.05, 3.0 * spec.r2))
        worst = max(worst, check_modulation_symmetry(pair_spec, 0, 1, t, xi))
    checks.append(LedgerCheck("modulation_symmetry", n, worst, 1e-12, worst <= 1e-12))

    # One-sided C^1 regularity of the blend window.
    c1_samples = 1 if n else 0
    c1_worst = check_blend_c1(spec) if c1_samples else 0.0
    checks.append(LedgerCheck("blend_c1", c1_samples, c1_worst, 1e-10, c1_worst <= 1e-10))

    # Antiperiodicity and zero mean of the representation.
    worst_ap = 0.0
    worst_zm = 0.0
    for _ in range(max(n // 10, min(n, 1))):
        loop = _random_loop(rng, spec.n_bodies, dim, harmonics, spec.period)
        n_t = 4 * harmonics + 10  # even, so t + T/2 lands on the grid
        pos = loopspace.sample_trajectory(loop, n_t)
        scale = 1.0 + float(np.abs(pos).max())
        half = n_t // 2
        worst_ap = max(worst_ap, float(np.abs(np.roll(pos, -half, axis=0) + pos).max()) / scale)
        worst_zm = max(worst_zm, float(np.abs(pos.mean(axis=0)).max()) / scale)
    checks.append(
        LedgerCheck("antiperiodicity", max(n // 10, min(n, 1)), worst_ap, 1e-12, worst_ap <= 1e-12)
    )
    checks.append(
        LedgerCheck("zero_mean", max(n // 10, min(n, 1)), worst_zm, 1e-12, worst_zm <= 1e-12)
    )

    return LedgerReport(checks=tuple(checks), samples=n, seed=seed)
