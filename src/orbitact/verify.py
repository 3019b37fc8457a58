"""Independent checks on orbits and on the inequality infrastructure.

Everything here is diagnostic: residuals of the motion equations on candidate
orbits, algebraic identities and inequalities the potential and loop
representation are supposed to satisfy, an explicit coercivity bound for
sublevel sets of the action, and a collision blow-up probe. The checks are
deliberately computed through routes independent of the code paths they
audit wherever that is meaningful (e.g. the strong-force margin evaluates the
witness from its own constants rather than reusing the potential formula).
The residual and the blow-up probe evaluate the potential on loops, which
only the action evaluator does, so each is one call on an evaluator.

The sampled checks accept leading batch axes, so the inequality ledger
draws each field of a block in one generator call and checks the block's
draws at once: one pair block of body configurations, whose one pair table
per body count serves both pair checks (the power-sum bound per theta), one
call for the scalar checks, and per chunk of loops only where the
coefficient blocks are large. It draws only what a check reads, and its
report does not depend on the chunk size. One generator makes every draw
in stream order, and the checks of each drawn item run and free their
arrays before the next item is drawn. A batched call equals a loop of
single calls bit for bit: sums over pairs run along a contiguous axis, dot
products go through the same 1-D kernel per row, and the powers that a
single call takes of numpy scalars stay the C library's pow
(np.float_power); numpy's array ``**`` rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import loopspace
from .action import _Evaluator
from .errors import CollisionSample, SingleBody, ThetaOutOfRange
from .loopspace import LoopBatch, LoopConfiguration
from .potential import (
    PotentialSpec,
    _blend,
    _float_if_scalar,
    _inner,
    _profile,
    _tail,
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
    an exact solution of the motion equations. The forces come from the
    action evaluator, through the sampling and pair kernel of the gradient.
    """
    return _Evaluator(spec, loop, n_t).residual(loop.flat())


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, shape (...).

    Each row goes through the same 1-D dot kernel as ``a @ b`` on one pair of
    vectors, so a stacked call rounds exactly like a loop of single ones; a
    sum of elementwise products may not.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each equal to np.linalg.norm of its row."""
    return np.sqrt(_dot(v, v))


def _sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """values.sum(axis) bit for bit, by whole-array adds when the axis has fewer than 8 entries.

    numpy adds fewer than 8 terms left to right onto +0, so the explicit adds
    round the same, at a fraction of a reduction's cost on many short rows.
    """
    parts = np.rollaxis(values, axis)  # moveaxis(values, axis, 0), at a quarter of its call cost
    if not 0 < len(parts) < 8:
        return values.sum(axis=axis)
    total = parts[0] + 0.0
    for part in parts[1:]:
        total += part
    return total


def _pair_table(masses: np.ndarray, positions: np.ndarray):
    """Pair weights m_i m_j and squared separations |x_i - x_j|^2 over i < j, each (..., P).

    The separations are one product with the search's cached pair map
    (:func:`loopspace._pair_map`), which gives each x_i - x_j exactly as a
    subtraction would. Both tables come out C-contiguous, so that sums over
    pairs run along the contiguous axis and round as for one configuration.
    """
    *lead, n_bodies, dim = positions.shape
    iu, ju, _ = loopspace.body_pairs(n_bodies)
    weights = np.take(masses, iu, axis=-1) * np.take(masses, ju, axis=-1)
    diff = (positions.reshape(-1, n_bodies * dim) @ loopspace._pair_map(n_bodies, dim)).reshape(
        *lead, iu.size, dim
    )
    diff *= diff
    return weights, _sum(diff)


def _pairwise_table_sides(masses: np.ndarray, positions: np.ndarray, weights: np.ndarray, sq: np.ndarray):
    """Both sides (lhs, rhs) of the pairwise-distance identity from a :func:`_pair_table`, each (...)."""
    lhs = _sum(weights * sq)
    total = _sum(masses)
    weighted = _sum(masses * _sum(positions**2))
    center = _sum(masses[..., None] * positions, axis=-2)
    rhs = total * weighted - _sum(center**2)
    return lhs, rhs


def _holder_table_sides(weights: np.ndarray, rsq: np.ndarray, theta: float):
    """Both sides (lhs, rhs) of the power-sum bound from a :func:`_pair_table`, each (...).

    Rows of one table may be checked at different theta by slicing it. The
    two powers of the RHS are the C library's pow (np.float_power), as for
    the numpy scalars of one configuration, so batches round the same.
    """
    lhs = _sum(weights * rsq ** (theta / 2.0))
    rhs = np.float_power(_sum(weights), (2.0 - theta) / 2.0) * np.float_power(
        _dot(weights, rsq), theta / 2.0
    )
    return lhs, rhs


def check_pairwise_identity(masses: np.ndarray, positions: np.ndarray):
    """|LHS - RHS| of the weighted pairwise-distance identity.

    sum_{i<j} m_i m_j |x_i - x_j|^2
        == (sum_i m_i)(sum_i m_i |x_i|^2) - |sum_i m_i x_i|^2.

    masses (..., N) and positions (..., N, k) may carry the same leading
    batch axes, giving one value per configuration; one configuration gives
    a numpy float. Each entry equals the single call bit for bit.
    """
    masses = np.asarray(masses, dtype=float)
    positions = np.asarray(positions, dtype=float)
    lhs, rhs = _pairwise_table_sides(masses, positions, *_pair_table(masses, positions))
    return np.abs(lhs - rhs)


def check_holder_bound(masses: np.ndarray, positions: np.ndarray, theta: float):
    """Slack RHS - LHS of the pairwise power-sum upper bound.

    LHS = sum_{i<j} m_i m_j r_ij^theta,
    RHS = (sum m_i m_j)^{(2-theta)/2} (sum m_i m_j r_ij^2)^{theta/2}.

    The bound LHS <= RHS holds for theta in [0, 2) (it is Holder's inequality
    with exponents 2/(2-theta) and 2/theta). For theta < 0 the power mean runs
    the other way and the slack can be negative; the function still reports it.
    Batch axes work as in :func:`check_pairwise_identity`; one configuration
    gives a float. A theta >= 2 raises ThetaOutOfRange, an integer beyond
    the float range included. A theta that is not a real number (a bool, a
    string, None), NaN, infinite or an integer below -float max raises
    ValueError.
    """
    if loopspace._is_real(theta) and 2 <= theta < np.inf:
        raise ThetaOutOfRange(f"bound requires theta < 2, got {theta}")
    if not loopspace._is_finite_real(theta):
        raise ValueError(f"theta must be finite and real, got {theta!r}")
    masses = np.asarray(masses, dtype=float)
    positions = np.asarray(positions, dtype=float)
    lhs, rhs = _holder_table_sides(*_pair_table(masses, positions), theta)
    return _float_if_scalar(rhs - lhs)


def check_wirtinger(loop: LoopConfiguration | LoopBatch) -> np.ndarray:
    """Per-body slack (T/2pi)^2 ||xdot_i||^2 - ||x_i||^2 in L^2, shape (..., N).

    Through the coefficient sums the slack is (T/2) sum_m (m^2 - 1) E_{i,m}
    with E the harmonic energies, so it is nonnegative and vanishes exactly
    when only the first harmonic is populated. Computed termwise to avoid
    cancellation between harmonics. A :class:`LoopBatch` gives one row per
    loop, each equal to the single call bit for bit.
    """
    return _wirtinger_slack(loop, loopspace.harmonic_energies(loop))


def wirtinger_kinetic_side(loop: LoopConfiguration | LoopBatch) -> np.ndarray:
    """Per-body (T/2pi)^2 ||xdot_i||^2, the large side of the comparison, shape (..., N)."""
    return _wirtinger_kinetic(loop, loopspace.harmonic_energies(loop))


def _wirtinger_slack(loop: LoopConfiguration | LoopBatch, energies: np.ndarray) -> np.ndarray:
    """:func:`check_wirtinger` from the loop's harmonic energies."""
    scaled = (loop.period / (2.0 * np.pi)) * loop.angular_frequencies()
    factors = scaled**2 - 1.0  # m^2 - 1 up to roundoff in the frequency product
    return 0.5 * loop.period * (energies @ factors)


def _wirtinger_kinetic(loop: LoopConfiguration | LoopBatch, energies: np.ndarray) -> np.ndarray:
    """:func:`wirtinger_kinetic_side` from the loop's harmonic energies."""
    scale = (loop.period / (2.0 * np.pi)) ** 2
    return scale * loopspace._velocity_l2_from_energies(loop, energies)


def check_modulation_symmetry(spec: PotentialSpec, i: int, j: int, t, xi):
    """Normalized |V_ij(t + T/2, -xi) - V_ij(t, xi)|; zero by construction.

    t (...) and xi (..., k) may carry the same leading batch axes, giving one
    value per sample; a single sample gives a float.
    """
    xi = np.asarray(xi, dtype=float)
    v_a = pair_potential(spec, t, i, j, _norm(xi))
    v_b = pair_potential(spec, t + 0.5 * spec.period, i, j, _norm(-xi))
    return _float_if_scalar(np.abs(v_b - v_a) / (1.0 + np.abs(v_a)))


def check_blend_c1(spec: PotentialSpec) -> float:
    """Worst relative value/slope mismatch of the blend against the branches at r1 and r2.

    The blend is compared with the inner branch at r1 and the tail at r2, not
    with the endpoint data it is built from, so a wrong endpoint formula shows.
    The C^1 Hermite blend matches all four constraints to roundoff; the C^0
    linear hook fails the slope comparisons unless the endpoint slopes happen
    to agree.
    """
    blend_vals, blend_slopes = _blend(spec, np.asarray([spec.r1, spec.r2]), 1)
    (v0, d0), (v1, d1) = _inner(spec, spec.r1, 1), _tail(spec, spec.r2, 1)
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
    An argument that is not a real number (a bool, a string, None), NaN,
    infinite or an integer beyond the float range raises ValueError.
    """
    if not all(map(loopspace._is_real, (C, B, theta, K))):
        raise ValueError(f"C, B, theta and K must be real numbers, got {C!r}, {B!r}, {theta!r} and {K!r}")
    for name, value in (("C", C), ("B", B), ("theta", theta), ("K", K)):
        if not loopspace._is_finite_real(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
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
    iu, ju, _ = loopspace.body_pairs(spec.n_bodies)
    pair_masses = masses[iu] * masses[ju]
    sum_pair = float(pair_masses.sum())
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
    pair_mass_max = float(pair_masses.max()) if iu.size else 0.0
    b_max = (1.0 + spec.modulation_eps) * pair_mass_max * profile_max
    B = iu.size * b_max
    return float(C), float(B)


def coercivity_bound(spec: PotentialSpec, K: float) -> float:
    """Upper bound A(K) on kinetic energy over the action sublevel {f <= K}.

    K is checked as :func:`solve_energy_bound` checks it: a level that is
    not a real number, NaN, infinite or beyond the float range raises ValueError.
    """
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
    """Evaluate the action on first-harmonic pair circles of separation 2^-j, j = 1..j_max.

    Uses the first two masses of the spec. With the strong-force inner branch
    the values must increase without bound as the separation halves, which is
    the computable face of the collision barrier. The circles are one
    value-only batch on one evaluator. A circle that collides on the grid or
    has a non-finite action (from j_max = 511 at alpha = 2) raises ValueError.
    """
    if spec.n_bodies < 2:
        raise SingleBody("blow-up probe needs at least two bodies")
    loopspace._require_integer("j_max", j_max, 1)
    pair_spec = replace(spec, masses=np.asarray(spec.masses[:2]))
    seps = 2.0 ** -np.arange(1, j_max + 1, dtype=float)
    coeffs = np.zeros((j_max, 2, 1, 2, 2))
    coeffs[:, 0, 0, 0, 0] = coeffs[:, 0, 0, 1, 1] = 0.5 * seps
    coeffs[:, 1] = -coeffs[:, 0]
    evaluator = _Evaluator(pair_spec, LoopConfiguration(2, 2, spec.period, coeffs[0]))
    try:
        with np.errstate(all="ignore"):
            (values,), _, _, _ = evaluator.evaluate(coeffs.reshape(j_max, -1), 0)
        finite = np.isfinite(values).all()
    except CollisionSample:
        finite = False
    if not finite:
        raise ValueError(
            f"j_max={j_max} is too large: a circle of separation down to 2^-{j_max} "
            "collides on the quadrature grid or has a non-finite action"
        )
    return BlowupProbe(separations=seps, values=values)


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
        return asdict(self)


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


# Loops per batched call of the ledger's coefficient blocks (Wirtinger,
# antiperiodicity), which it keeps small; the draws do not depend on it. On
# the benchmark's 5000-sample ledger (N = 4, M = 8, 2-vCPU VM) 256-loop
# chunks ran about 5% faster but peaked 0.66 MB higher (40.8-41.0 against
# 40.0-40.2 MB): a representation chunk's draws and sampled positions grow
# with the chunk and set the ledger's peak.
LEDGER_CHUNK = 128

# The ledger's checks with their tolerances and sides, in report order.
_LEDGER_CHECKS = (
    ("pairwise_identity", 1e-10, False),
    ("holder_upper_bound", 1e-12, True),
    ("wirtinger", 1e-12, True),
    ("wirtinger_first_harmonic", 1e-12, False),
    ("strong_force_margin", 1e-12, True),
    ("modulation_symmetry", 1e-12, False),
    ("blend_c1", 1e-10, False),
    ("antiperiodicity", 1e-12, False),
    ("zero_mean", 1e-12, False),
)


def _random_coefficients(rng, batch: tuple, n_bodies: int, dim: int, harmonics: int) -> np.ndarray:
    """Normal coefficients (*batch, N, M, 2, k) damped by 1/m^2, drawn in one call.

    One call over a batch draws the same stream as one call per loop. The
    divisor is one contiguous (M, 2, k) block, which gives the quotients of
    a broadcast (M, 1, 1) one in fewer, longer inner loops.
    """
    coeffs = rng.standard_normal((*batch, n_bodies, harmonics, 2, dim))
    orders = np.arange(1, 2 * harmonics, 2, dtype=float)
    coeffs /= np.repeat(orders**2, 2 * dim).reshape(harmonics, 2, dim)
    return coeffs


def _random_loop_chunks(rng, block: str, spec: PotentialSpec, count: int, dim: int, harmonics: int):
    """(block, LoopBatch) items of count random loops of :func:`_random_coefficients`, at most LEDGER_CHUNK per batch.

    The chunks are drawn back to back, so they form the stream of one call.
    """
    for start in range(0, count, LEDGER_CHUNK):
        size = min(LEDGER_CHUNK, count - start)
        yield block, LoopBatch(spec.period, _random_coefficients(rng, (size,), spec.n_bodies, dim, harmonics))


def _random_body_groups(rng, n: int, dim: int):
    """Two to six bodies for each of n samples, grouped by body count: the ledger's pair block.

    One call draws every body count; then per count present, in increasing
    order, one call draws the group's masses in [0.1, 3) and one its normal
    positions. Yields (indices, masses (G, b), positions (G, b, k)) per body
    count b, indices being the group's sample indices in 0..n-1. The ledger
    makes one such pass and checks both pair inequalities on it.
    """
    counts = rng.integers(2, 7, size=n)
    for bodies in range(2, 7):
        members = np.flatnonzero(counts == bodies)
        if members.size:
            masses = rng.uniform(0.1, 3.0, size=(members.size, bodies))
            positions = rng.normal(scale=1.5, size=(members.size, bodies, dim))
            yield members, masses, positions


def _ledger_draws(rng, spec: PotentialSpec, dim: int, harmonics: int, n: int):
    """Every generator call of the ledger, in stream order, as (block, draws) items.

    The pair block "pairs", whose configurations both pair checks read,
    yields (indices, masses, positions) per body count; the Wirtinger block
    its general then its first-harmonic loops, and the representation block
    its loops, as LoopBatches of at most LEDGER_CHUNK; the strong-force block
    its radii r and the symmetry block (t, directions of xi, |xi|). Any other
    block is named after its check, the representation block
    "representation". No local here holds a block's draws after its last
    item is yielded.
    """
    yield from (("pairs", group) for group in _random_body_groups(rng, n, dim))
    first = -(-n // 4)
    yield from _random_loop_chunks(rng, "wirtinger", spec, n - first, dim, harmonics)
    yield from _random_loop_chunks(rng, "wirtinger_first_harmonic", spec, first, dim, 1)
    if n:
        log_lo, log_hi = np.log(1e-8 * spec.r1), np.log(spec.r1 * (1 - 1e-12))
        yield "strong_force_margin", np.exp(rng.uniform(log_lo, log_hi, size=n))
        # a tuple's fields are drawn left to right: t, the directions of xi, |xi|
        yield "modulation_symmetry", (
            rng.uniform(0.0, spec.period, size=n),
            rng.normal(size=(n, dim)),
            rng.uniform(0.05, 3.0 * spec.r2, size=n),
        )
    yield from _random_loop_chunks(rng, "representation", spec, max(n // 10, min(n, 1)), dim, harmonics)


def _abs_max(values: np.ndarray, axis) -> np.ndarray:
    """np.abs(values).max(axis), from a max and a min pass, without a full-size |values|.

    The outer abs only turns a zero maximum into +0, as np.abs gives it.
    """
    return np.abs(np.maximum(values.max(axis=axis), -values.min(axis=axis)))


def _ledger_check(name: str, slacks: list, tolerance: float, *, lower: bool) -> LedgerCheck:
    """Reduce one check's normalized slacks to its ledger entry.

    slacks holds per-sample slacks, as scalars or as arrays of them (one
    array per batched call). A lower check needs every slack >= -tolerance
    and reports the smallest; an upper check needs every slack <= tolerance
    and reports the largest. A NaN slack fails the check. No slacks pass
    vacuously with worst slack 0.
    """
    values = np.concatenate([np.ravel(s) for s in slacks]) if slacks else np.empty(0)
    if values.size == 0:
        return LedgerCheck(name, 0, 0.0, tolerance, True)
    worst = float(values.min() if lower else values.max())
    passed = worst >= -tolerance if lower else worst <= tolerance
    return LedgerCheck(name, values.size, worst, tolerance, passed)


def run_inequality_ledger(
    spec: PotentialSpec,
    dim: int,
    harmonics: int,
    n_samples: int,
    seed: int,
) -> LedgerReport:
    """Sample every ledger check with a seeded generator.

    dim, harmonics, n_samples and seed must be integers (numpy integers
    count, bools do not), dim and harmonics >= 1 and the other two >= 0;
    anything else raises ValueError. A check takes n = n_samples samples,
    except wirtinger_first_harmonic (the ceil(n/4) first-harmonic loops
    among the Wirtinger samples), antiperiodicity and zero_mean
    (max(floor(n/10), 1) shared loops) and blend_c1 (one). With n = 0 every
    check reports vacuously (zero samples, pass); callers should warn then.

    One stream per block, no draw discarded. Each block draws each of its
    fields in one generator call: the pair block its body counts, then per
    body count the masses and the positions; the strong-force block its
    radii; the symmetry block its times, directions and radii. Both pair
    checks read the one pair block: per body count one pair table serves
    the identity's batched call and the power-sum bound's slices per theta.
    The strong-force and symmetry checks make one call each. The Wirtinger
    block draws its n - ceil(n/4) general loops, then its ceil(n/4)
    first-harmonic loops with the first harmonic only. The coefficient
    blocks (Wirtinger, antiperiodicity) are drawn and checked in chunks of
    LEDGER_CHUNK loops, which bounds the large arrays; back-to-back draws
    form one stream, so the report does not depend on LEDGER_CHUNK.

    :func:`_ledger_draws` makes every generator call in stream order, and
    each item is checked in full before the next one is drawn, by one call
    whose arrays are freed when it returns. So no check's arrays are alive
    while the next item is drawn, and the working set beside the slacks is
    one item's checks and at most two items' draws.
    """
    loopspace._require_integer("dim", dim, 1)
    loopspace._require_integer("harmonics", harmonics, 1)
    loopspace._require_integer("n_samples", n_samples, 0)
    loopspace._require_integer("seed", seed, 0)
    dim, harmonics, n, seed = int(dim), int(harmonics), int(n_samples), int(seed)

    # Power-sum exponents in the valid band [0, 2).
    theta_grid = [0.0, 0.5, 1.0, 1.5, 1.9]
    if 0.0 <= spec.theta < 2.0:
        theta_grid.append(spec.theta)
    # The scalar checks read the first pair of bodies, two copies of a lone body.
    pair_spec = spec if spec.n_bodies >= 2 else replace(
        spec, masses=np.asarray([spec.masses[0], spec.masses[0]])
    )
    v_coeff = (1.0 - spec.modulation_eps) * pair_spec.masses[0] * pair_spec.masses[1] * spec.a
    n_t = 4 * harmonics + 10  # even, so t + T/2 lands on the grid
    half = n_t // 2  # pairs (t, t + T/2) over the first half cover the whole grid

    slacks = {name: [] for name, _, _ in _LEDGER_CHECKS}

    def check_block(block, item):
        """Append the slacks of one drawn item; its arrays are freed on return."""
        if block == "pairs":
            # one pair table for both checks; the identity's slack is
            # relative to its own LHS sum_{i<j} m_i m_j |x_i - x_j|^2
            members, masses, positions = item
            weights, rsq = _pair_table(masses, positions)
            lhs, rhs = _pairwise_table_sides(masses, positions, weights, rsq)
            slacks["pairwise_identity"].append(np.abs(lhs - rhs) / (1.0 + lhs))
            grid_index = members % len(theta_grid)
            for k, theta in enumerate(theta_grid):
                same = grid_index == k
                if same.any():
                    lhs, rhs = _holder_table_sides(weights[same], rsq[same], theta)
                    slacks["holder_upper_bound"].append((rhs - lhs) / (1.0 + rhs))
        elif block in ("wirtinger", "wirtinger_first_harmonic"):
            # the comparison on every loop, and its tightness on first-harmonic ones
            energies = loopspace.harmonic_energies(item)
            slack = _wirtinger_slack(item, energies)
            scale = 1.0 + _wirtinger_kinetic(item, energies)
            slacks["wirtinger"].append((slack / scale).min(axis=-1))
            if block == "wirtinger_first_harmonic":
                slacks[block].append((np.abs(slack) / scale).max(axis=-1))
        elif block == "strong_force_margin":
            # float_power is the C library's pow, as for one float r
            margin = strong_force_margin(pair_spec, 0, 1, item)
            slacks[block].append(margin / np.maximum(v_coeff * np.float_power(item, -spec.alpha), 1e-300))
        elif block == "modulation_symmetry":
            # half-period reflection of the modulated pair potential
            times, directions, radii = item
            xi = directions / np.maximum(_norm(directions), 1e-12)[:, None] * radii[:, None]
            slacks[block].append(check_modulation_symmetry(pair_spec, 0, 1, times, xi))
        else:
            # antiperiodicity and zero mean of the representation
            pos = loopspace.sample_trajectory(item, n_t)  # (loops, n_t, N, k)
            scale = 1.0 + _abs_max(pos, (1, 2, 3))
            slacks["zero_mean"].append(_abs_max(pos.mean(axis=1), (1, 2)) / scale)
            # x(t + T/2) + x(t) folded into the second half, with no temporary
            folded = pos[:, half:]
            folded += pos[:, :half]
            slacks["antiperiodicity"].append(_abs_max(folded, (1, 2, 3)) / scale)

    for block, item in _ledger_draws(np.random.default_rng(seed), spec, dim, harmonics, n):
        check_block(block, item)
    if n:
        # one-sided C^1 regularity of the blend window
        slacks["blend_c1"].append(check_blend_c1(spec))
    checks = tuple(_ledger_check(name, slacks[name], tol, lower=lower) for name, tol, lower in _LEDGER_CHECKS)
    return LedgerReport(checks=checks, samples=n, seed=seed)
