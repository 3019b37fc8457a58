"""Antiperiodic loops on a truncated odd-harmonic Fourier basis.

Every body traces

    x_i(t) = sum_{m odd} a_{i,m} cos(2 pi m t / T) + b_{i,m} sin(2 pi m t / T)

with m ranging over {1, 3, ..., 2M-1}. Because only odd harmonics appear,
x_i(t + T/2) = -x_i(t) holds identically and each component has zero mean
over a period, so membership in the antiperiodic loop space is a property
of the representation rather than a constraint to enforce. Orthogonality of
the basis turns kinetic energy, L^2 / H^1 norms, and the Wirtinger
comparison into closed sums over coefficients.

Coefficient layout is body-major, harmonic-minor, cosine before sine:
``coefficients[i, m_idx, 0, :]`` is the cosine vector of body ``i`` at
harmonic ``2*m_idx + 1`` and ``[..., 1, :]`` the sine vector. Flattening is
C-order of that array, which fixes the gradient layout used everywhere else.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, ShapeMismatch

__all__ = [
    "LoopConfiguration",
    "LoopBatch",
    "FourierGrid",
    "default_grid_size",
    "quadrature_grid",
    "sample_trajectory",
    "sample_acceleration",
    "evaluate_positions",
    "kinetic_energy",
    "harmonic_energies",
    "body_pairs",
    "pair_separations",
    "h1_distance",
    "shift_loop",
]


def _is_integer(value) -> bool:
    """True for Python and numpy integers, but not for bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy integers and floats, but not for bools."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """True for a real number (see _is_real) finite as a float: an int is compared with the
    float range directly, since math.isfinite and np.isfinite overflow on huge integers."""
    if not _is_real(value):
        return False
    if isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return math.isfinite(value)


def _real_array(value) -> np.ndarray | None:
    """value as an array of real numbers, or None if an entry is not one.

    A floating array is kept in its dtype and a bool or integer one cast to
    float. An object array (a list holding an int beyond int64, say) is cast
    only if every entry is a finite real (see _is_finite_real). Complex and
    string arrays give None, since casting them would drop the imaginary part
    or fail inside numpy, and so does a ragged nest of sequences, whose
    inhomogeneous shape np.asarray refuses with a ValueError.
    """
    try:
        array = np.asarray(value)
    except ValueError:
        return None
    kind = array.dtype.kind
    if kind in "biu" or (kind == "O" and all(_is_finite_real(v) for v in array.flat)):
        return array.astype(float)
    return array if kind == "f" else None


def _require_integer(name: str, value, minimum=None) -> None:
    """Raise ValueError naming ``name`` unless value is an integer (see _is_integer) >= minimum."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _require_positive(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless value is a finite positive real (see _is_finite_real)."""
    if not (_is_finite_real(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def default_grid_size(harmonics: int) -> int:
    """Default number of uniform quadrature nodes for M retained harmonics.

    4M+1 nodes make the periodic trapezoid rule exact for products of two
    retained basis functions (degree up to 2(2M-1) = 4M-2); the +9 adds slack
    for the non-polynomial potential integrand.
    """
    return 4 * harmonics + 9


@dataclass(frozen=True)
class LoopConfiguration:
    """Fourier coefficients of one antiperiodic loop per body.

    Attributes:
        n_bodies: number of bodies N.
        dim: spatial dimension k (>= 1; solvers require >= 2).
        period: loop period T > 0.
        coefficients: array of shape (N, M, 2, k), immutable after init.

    n_bodies and dim must be integers (numpy integers count and are stored
    as int, bools do not), the period a real number other than a bool and
    the coefficients finite real numbers (not complex values or strings);
    anything else raises ShapeMismatch.
    """

    n_bodies: int
    dim: int
    period: float
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (_is_integer(self.n_bodies) and _is_integer(self.dim)):
            raise ShapeMismatch(
                f"n_bodies and dim must be integers, got {self.n_bodies!r} and {self.dim!r}"
            )
        if not _is_real(self.period):
            raise ShapeMismatch(f"period must be a real number, got {self.period!r}")
        object.__setattr__(self, "n_bodies", int(self.n_bodies))
        object.__setattr__(self, "dim", int(self.dim))
        c = _real_array(self.coefficients)
        if c is None:
            raise ShapeMismatch("coefficients must be finite real numbers")
        if c.ndim != 4 or c.shape[0] != self.n_bodies or c.shape[2] != 2 or c.shape[3] != self.dim:
            raise ShapeMismatch(
                f"coefficients shape {c.shape} does not match (N={self.n_bodies}, M, 2, k={self.dim})"
            )
        if c.shape[1] < 1:
            raise ShapeMismatch("at least one harmonic is required")
        if self.n_bodies < 1 or self.dim < 1:
            raise ShapeMismatch("n_bodies and dim must be positive")
        if not (_is_finite_real(self.period) and self.period > 0):
            raise ShapeMismatch(f"period must be finite and positive, got {self.period}")
        if not np.all(np.isfinite(c)):
            raise ShapeMismatch("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def harmonics(self) -> int:
        """Number of retained odd harmonics M."""
        return self.coefficients.shape[1]

    def angular_frequencies(self) -> np.ndarray:
        """omega_m = 2 pi m / T for each retained harmonic."""
        return _odd_frequencies(self.period, self.harmonics, self.coefficients.dtype)

    @classmethod
    def from_flat(
        cls, flat: np.ndarray, n_bodies: int, dim: int, period: float, harmonics: int
    ) -> "LoopConfiguration":
        flat = np.asarray(flat)
        expected = n_bodies * harmonics * 2 * dim
        if flat.size != expected:
            raise ShapeMismatch(f"flat vector has {flat.size} entries, expected {expected}")
        return cls(n_bodies, dim, period, flat.reshape(n_bodies, harmonics, 2, dim))

    def flat(self) -> np.ndarray:
        """Coefficients flattened body-major, harmonic-minor, cosine before sine."""
        return self.coefficients.reshape(-1).copy()

    def with_flat(self, flat: np.ndarray) -> "LoopConfiguration":
        return LoopConfiguration.from_flat(flat, self.n_bodies, self.dim, self.period, self.harmonics)


@dataclass(frozen=True)
class LoopBatch:
    """Loops of one period stacked along leading axes, coefficients (..., N, M, 2, k).

    Functions that read only a loop's coefficients and period
    (:func:`sample_trajectory`, :func:`sample_acceleration`,
    :func:`harmonic_energies`, :func:`velocity_l2_norms_squared` and the
    Wirtinger checks in ``verify``) accept a batch in place of a
    :class:`LoopConfiguration` and return results with the same leading
    axes; :func:`kinetic_energy` accepts a batch of one loop.
    Unlike a LoopConfiguration, a batch neither copies nor validates its
    coefficients.
    """

    period: float
    coefficients: np.ndarray = field(repr=False)

    @property
    def harmonics(self) -> int:
        return self.coefficients.shape[-3]

    def angular_frequencies(self) -> np.ndarray:
        """omega_m = 2 pi m / T for each retained harmonic."""
        return _odd_frequencies(self.period, self.harmonics, self.coefficients.dtype)


@dataclass(frozen=True)
class FourierGrid:
    """Uniform quadrature nodes and the trigonometric basis sampled on them.

    Row ``2*m_idx`` of each basis is cos(omega_m t) and row ``2*m_idx + 1``
    sin(omega_m t), or their second time derivatives. Every array is
    read-only, because one instance is shared by all callers with the same key.

    Attributes:
        times: (n_t,) nodes t_j = j T / n_t.
        omega: (M,) angular frequencies of the odd harmonics.
        basis: (2M, n_t) cosine/sine rows.
        acceleration: (2M, n_t) second time derivative of ``basis``.
    """

    times: np.ndarray
    omega: np.ndarray
    basis: np.ndarray
    acceleration: np.ndarray

    def __post_init__(self):
        for name in ("times", "omega", "basis", "acceleration"):
            getattr(self, name).flags.writeable = False


def _odd_frequencies(period: float, harmonics: int, dtype) -> np.ndarray:
    return (2.0 * np.pi / period) * np.arange(1, 2 * harmonics, 2).astype(dtype)


def _trig_basis(omega: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Interleaved cos/sin rows of shape (2M, len(times))."""
    angles = np.outer(omega, times)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(2 * len(omega), len(times))


@functools.lru_cache(maxsize=32)
def _fourier_grid(period: float, harmonics: int, n_t: int, dtype: np.dtype) -> FourierGrid:
    """The shared grid for (T, M, n_t, dtype); built once, then served from a cache."""
    times = np.arange(n_t, dtype=dtype) * (period / n_t)
    omega = _odd_frequencies(period, harmonics, dtype)
    basis = _trig_basis(omega, times)
    acceleration = -np.repeat(omega * omega, 2)[:, None] * basis
    return FourierGrid(times=times, omega=omega, basis=basis, acceleration=acceleration)


def quadrature_grid(loop: LoopConfiguration, n_t: int | None = None) -> FourierGrid:
    """The grid matching a loop's period, harmonics and dtype; n_t defaults per M.

    Raises ValueError when n_t is not an integer (a fractional count would
    space the nodes off the period), and GridTooCoarse when n_t < 4M + 1,
    the minimum for the grid to integrate products of retained harmonics
    exactly.
    """
    m = loop.harmonics
    if n_t is None:
        n_t = default_grid_size(m)
    else:
        _require_integer("n_t", n_t)
    if n_t < 4 * m + 1:
        raise GridTooCoarse(f"n_t={n_t} < 4M+1={4 * m + 1} for M={m}")
    return _fourier_grid(loop.period, m, n_t, loop.coefficients.dtype)


def _synthesize(rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Sum of (2M, n) basis rows weighted by (..., N, M, 2, k) coefficients, shape (..., n, N, k).

    The coefficients enter as a (..., 2M, N k) matrix: rows (harmonic,
    cos/sin) as in :class:`FourierGrid`, columns (body, coordinate). Over
    leading batch axes matmul stacks the product of each loop, so every block
    equals the single call.
    """
    *batch, n_bodies, _, _, dim = coefficients.shape
    coeffs = coefficients.swapaxes(-4, -3).swapaxes(-3, -2).reshape(*batch, rows.shape[0], -1)
    return (rows.T @ coeffs).reshape(*batch, rows.shape[1], n_bodies, dim)


def sample_trajectory(loop: LoopConfiguration | LoopBatch, n_t: int | None = None) -> np.ndarray:
    """Positions at the n_t nodes of :func:`quadrature_grid`, shape (..., n_t, N, k).

    A :class:`LoopBatch` gives one (n_t, N, k) block per loop, each equal to
    the single call bit for bit. Raises GridTooCoarse when n_t < 4M + 1, the
    minimum for the grid to integrate products of retained harmonics exactly.
    """
    return _synthesize(quadrature_grid(loop, n_t).basis, loop.coefficients)


def sample_acceleration(loop: LoopConfiguration | LoopBatch, n_t: int | None = None) -> np.ndarray:
    """Second time derivative on the same grid as :func:`sample_trajectory`."""
    return _synthesize(quadrature_grid(loop, n_t).acceleration, loop.coefficients)


def evaluate_positions(loop: LoopConfiguration, times: np.ndarray) -> np.ndarray:
    """Positions at arbitrary times, shape (len(times), N, k).

    Unlike :func:`sample_trajectory` this places no lower bound on the number
    of samples; it is meant for display and export, not quadrature.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _synthesize(_trig_basis(loop.angular_frequencies(), times), loop.coefficients)


def harmonic_energies(loop: LoopConfiguration | LoopBatch) -> np.ndarray:
    """|a_{i,m}|^2 + |b_{i,m}|^2 per body and harmonic, shape (..., N, M).

    The 2k squares of each (body, harmonic) are added left to right, cosine
    before sine and coordinate-minor, one whole-array add per (cos/sin,
    coordinate) entry. On C-ordered coefficients, which every
    LoopConfiguration holds, that is the order numpy's sum over the last two
    axes takes, so the bits are the same, at a fraction of its cost on a
    batch of loops.
    """
    squares = loop.coefficients**2
    squares = squares.reshape(*squares.shape[:-2], -1)
    energies = squares[..., 0].copy()
    for entry in range(1, squares.shape[-1]):
        energies += squares[..., entry]
    return energies


def kinetic_energy(loop: LoopConfiguration | LoopBatch, masses: np.ndarray) -> float:
    """Total kinetic part sum_i (m_i/2) int_0^T |xdot_i|^2 dt, in closed form.

    Orthogonality gives int |xdot_i|^2 = (T/2) sum_m omega_m^2 (|a|^2+|b|^2),
    so the result is exact for the truncated series (no quadrature).
    """
    masses = np.asarray(masses, dtype=float)
    if masses.shape != loop.coefficients.shape[:1] or loop.coefficients.ndim != 4:
        raise ShapeMismatch(f"masses shape {masses.shape} does not fit one loop {loop.coefficients.shape}")
    energies = harmonic_energies(loop)
    omega_sq = loop.angular_frequencies() ** 2
    return float(0.25 * loop.period * masses @ (energies @ omega_sq))


def velocity_l2_norms_squared(loop: LoopConfiguration | LoopBatch) -> np.ndarray:
    """Per-body squared L^2 norms of the velocity, shape (..., N)."""
    return _velocity_l2_from_energies(loop, harmonic_energies(loop))


def _velocity_l2_from_energies(loop: LoopConfiguration | LoopBatch, energies: np.ndarray) -> np.ndarray:
    """:func:`velocity_l2_norms_squared` from the loop's :func:`harmonic_energies`."""
    omega_sq = loop.angular_frequencies() ** 2
    return 0.5 * loop.period * (energies @ omega_sq)


@functools.lru_cache(maxsize=16)
def body_pairs(n_bodies: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The P = N(N-1)/2 pairs i < j as index arrays (iu, ju) and an (N, P) incidence matrix.

    Column p of the incidence matrix is +1 at body iu[p] and -1 at body
    ju[p]: its transpose maps body positions to pair separations, and the
    matrix itself maps per-pair forces back onto bodies. Arrays are read-only.
    """
    iu, ju = np.triu_indices(n_bodies, k=1)
    incidence = np.zeros((n_bodies, iu.size))
    incidence[iu, np.arange(iu.size)] = 1.0
    incidence[ju, np.arange(iu.size)] = -1.0
    for arr in (iu, ju, incidence):
        arr.flags.writeable = False
    return iu, ju, incidence


@functools.lru_cache(maxsize=16)
def _pair_map(n_bodies: int, dim: int) -> np.ndarray:
    """kron(incidence, I_k) of :func:`body_pairs`, shape (N k, P k), read-only.

    Flat positions (n_t, N k) times the map are the flat separations
    (n_t, P k). Column (p, d) holds +1 at row (iu[p], d), -1 at row (ju[p], d)
    and zeros elsewhere, so each entry of the product is x_i - x_j rounded
    once, in any summation order the matrix product takes: the same bits as
    the subtraction.
    """
    pair_map = np.kron(body_pairs(n_bodies)[2], np.eye(dim))
    pair_map.flags.writeable = False
    return pair_map


def pair_separations(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Separations x_i - x_j, shape (..., n_t, P, k), and their lengths (..., n_t, P), over pairs i < j.

    The separations are one matrix product with the cached pair map, which
    gives each x_i - x_j exactly as a subtraction would, as C-contiguous
    arrays: a strided dist would change the summation order of later
    matrix-vector products. Positions (..., n_t, N, k) with leading batch
    axes enter that product as one (-1, N k) matrix, so every block equals
    the single call bit for bit. For k <= 2 the squared coordinates are
    summed explicitly, which gives einsum's bits in about a third of its
    time at ring6 batch sizes. For k >= 3 einsum stays: its summation order
    differs between float64 and longdouble, so no single explicit order
    reproduces it. The square root is taken in place on the summed squares,
    which are a new C-contiguous array in every dimension.
    """
    *lead, n_bodies, dim = positions.shape
    pair_map = _pair_map(n_bodies, dim)
    diff = (positions.reshape(-1, n_bodies * dim) @ pair_map).reshape(
        *lead, pair_map.shape[1] // dim, dim
    )
    if dim > 2:
        dist = np.einsum("...pd,...pd->...p", diff, diff)
    else:
        square = diff * diff
        dist = square[..., 0] + square[..., 1] if dim == 2 else square[..., 0]
    return diff, np.sqrt(dist, out=dist)


def _common_harmonics(first: LoopConfiguration, second: LoopConfiguration):
    """Both coefficient arrays over the same harmonics, the shorter tail zero-padded.

    Raises ShapeMismatch when the loops differ in bodies, dimension or period.
    """
    if (
        first.n_bodies != second.n_bodies
        or first.dim != second.dim
        or first.period != second.period
    ):
        raise ShapeMismatch("loops differ in n_bodies, dim, or period")
    m = max(first.harmonics, second.harmonics)

    def padded(loop: LoopConfiguration) -> np.ndarray:
        c = loop.coefficients
        if loop.harmonics == m:
            return c
        pad = np.zeros((loop.n_bodies, m - loop.harmonics, 2, loop.dim), dtype=c.dtype)
        return np.concatenate([c, pad], axis=1)

    return padded(first), padded(second)


def h1_distance(first: LoopConfiguration, second: LoopConfiguration) -> float:
    """H^1 distance ( int |dx|^2 + |dxdot|^2 dt )^{1/2} of the difference loop.

    Computed in closed form from the coefficient difference. Loops must agree
    on bodies, dimension, and period; the shorter harmonic tail is zero-padded.
    """
    a, b = _common_harmonics(first, second)
    delta = a - b
    energies = (delta**2).sum(axis=(2, 3)).sum(axis=0)  # (M,)
    omega_sq = _odd_frequencies(first.period, a.shape[1], float) ** 2
    return float(np.sqrt(0.5 * first.period * ((1.0 + omega_sq) @ energies)))


def _shift_distances_sq(first: LoopConfiguration, second: LoopConfiguration, shifts: int):
    """Squared H^1 distances from first shifted by tau_k = k T / shifts to second, k < shifts.

    Entry k equals h1_distance(shift_loop(first, tau_k), second)**2 up to
    rounding, from per-harmonic cross terms instead of one shifted loop per
    tau. A shift rotates each harmonic's (a, b) block and keeps its energy,
    so with w_m = (T/2)(1 + omega_m^2), E = sum_m w_m (|A_m|^2 + |B_m|^2)
    over both loops, P_m = w_m sum (a_c.b_c + a_s.b_s) and
    Q_m = w_m sum (a_s.b_c - a_c.b_s):

        d^2(tau) = E - 2 (cos(tau omega).P + sin(tau omega).Q),

    one cos/sin table and two matrix-vector products for the whole grid.
    Rounding can leave an entry slightly below zero when the loops coincide.
    Checks and pads the loops as h1_distance does.
    """
    a, b = _common_harmonics(first, second)
    omega = _odd_frequencies(first.period, a.shape[1], float)
    weights = 0.5 * first.period * (1.0 + omega * omega)
    energy = weights @ (np.einsum("imcd,imcd->m", a, a) + np.einsum("imcd,imcd->m", b, b))
    dots = np.einsum("imcd,imed->mce", a, b)  # dots[m, c, e] = sum a_c . b_e, 0 = cos, 1 = sin
    p = weights * (dots[:, 0, 0] + dots[:, 1, 1])
    q = weights * (dots[:, 1, 0] - dots[:, 0, 1])
    angles = np.outer(np.arange(shifts) * first.period / shifts, omega)
    return energy - 2.0 * (np.cos(angles) @ p + np.sin(angles) @ q)


def shift_loop(loop: LoopConfiguration, tau: float) -> LoopConfiguration:
    """The time-translated loop t -> x(t + tau), again in coefficient form.

    Each harmonic block rotates: a' = a cos(omega tau) + b sin(omega tau),
    b' = -a sin(omega tau) + b cos(omega tau).
    """
    omega = loop.angular_frequencies()
    ct = np.cos(omega * tau)[None, :, None]
    st = np.sin(omega * tau)[None, :, None]
    a = loop.coefficients[:, :, 0, :]
    b = loop.coefficients[:, :, 1, :]
    shifted = np.stack([a * ct + b * st, -a * st + b * ct], axis=2)
    return LoopConfiguration(loop.n_bodies, loop.dim, loop.period, shifted)
