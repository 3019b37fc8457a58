import numpy as np
import pytest

from conftest import TWO_PI, per_pair_separations, random_loop
from orbitact.errors import GridTooCoarse, ShapeMismatch
from orbitact.loopspace import (
    LoopBatch,
    LoopConfiguration,
    _pair_map,
    _shift_distances_sq,
    default_grid_size,
    evaluate_positions,
    h1_distance,
    harmonic_energies,
    kinetic_energy,
    pair_separations,
    quadrature_grid,
    sample_acceleration,
    sample_trajectory,
    shift_loop,
    velocity_l2_norms_squared,
)
from orbitact.solver import TIME_SHIFTS


def naive_positions(loop, times):
    # independent evaluation: explicit double loop over bodies and harmonics
    out = np.zeros((len(times), loop.n_bodies, loop.dim))
    for j, t in enumerate(times):
        for i in range(loop.n_bodies):
            for row in range(loop.harmonics):
                m = 2 * row + 1
                ang = m * TWO_PI / loop.period * t
                out[j, i] += loop.coefficients[i, row, 0] * np.cos(ang)
                out[j, i] += loop.coefficients[i, row, 1] * np.sin(ang)
    return out


def analytic_velocities(loop, times):
    # termwise time derivative of the series: d/dt (a cos wt + b sin wt)
    omega = TWO_PI / loop.period * np.arange(1, 2 * loop.harmonics, 2)
    angles = np.outer(times, omega)
    a = loop.coefficients[:, :, 0]
    b = loop.coefficients[:, :, 1]
    return np.einsum("tm,imd->tid", -omega * np.sin(angles), a) + np.einsum(
        "tm,imd->tid", omega * np.cos(angles), b
    )


def test_constructor_validation():
    good = np.zeros((2, 3, 2, 2))
    loop = LoopConfiguration(2, 2, TWO_PI, good)
    assert loop.harmonics == 3
    with pytest.raises(ShapeMismatch):
        LoopConfiguration(3, 2, TWO_PI, good)  # wrong body count
    with pytest.raises(ShapeMismatch):
        LoopConfiguration(2, 3, TWO_PI, good)  # wrong dimension
    with pytest.raises(ShapeMismatch):
        LoopConfiguration(2, 2, TWO_PI, np.zeros((2, 3, 3, 2)))
    with pytest.raises(ShapeMismatch):
        LoopConfiguration(2, 2, 0.0, good)
    with pytest.raises(ShapeMismatch):
        LoopConfiguration(2, 2, np.inf, good)
    with pytest.raises(ShapeMismatch, match="period must be finite"):
        LoopConfiguration(2, 2, 10**400, good)  # an integer no float can hold
    bad = good.copy()
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(ShapeMismatch):
        LoopConfiguration(2, 2, TWO_PI, bad)


@pytest.mark.parametrize(
    "n_bodies, dim, period",
    [
        (True, 2, True),  # was accepted and stored n_bodies=True, period=True
        (2, True, TWO_PI),
        (2.0, 2, TWO_PI),
        (2, np.float64(2.0), TWO_PI),
        (2, 2, True),
        (2, 2, np.bool_(True)),
        (2, 2, 1.0 + 0.0j),
        (2, 2, "6.28"),
        (2, 2, None),
    ],
)
def test_constructor_rejects_non_integer_counts_and_non_real_period(n_bodies, dim, period):
    with pytest.raises(ShapeMismatch, match="must be integers|must be a real number"):
        LoopConfiguration(n_bodies, dim, period, np.zeros((2, 1, 2, 2)))


@pytest.mark.parametrize("bad", [10**400, 1 + 1j, "a"])
def test_constructor_and_from_flat_refuse_coefficients_that_are_not_finite_reals(bad):
    # gave a bare OverflowError, a cast to real with only a ComplexWarning, and
    # numpy's ValueError
    coefficients = [[[[bad, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]]]]
    with pytest.raises(ShapeMismatch, match="^coefficients must be finite real numbers"):
        LoopConfiguration(2, 2, TWO_PI, coefficients)
    with pytest.raises(ShapeMismatch, match="^coefficients must be finite real numbers"):
        LoopConfiguration.from_flat([bad] + [0.0] * 7, 2, 2, TWO_PI, 1)


def test_constructor_stores_numpy_integer_counts_as_int():
    loop = LoopConfiguration(np.int64(2), np.int32(2), np.float64(TWO_PI), np.zeros((2, 1, 2, 2)))
    assert type(loop.n_bodies) is int and type(loop.dim) is int
    assert LoopConfiguration(2, 2, 3, np.zeros((2, 1, 2, 2))).period == 3


def test_coefficients_immutable():
    loop = LoopConfiguration(1, 2, TWO_PI, np.ones((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        loop.coefficients[0, 0, 0, 0] = 2.0


def test_angular_frequencies_are_odd_multiples():
    loop = LoopConfiguration(1, 2, 4.0, np.zeros((1, 4, 2, 2)))
    base = TWO_PI / 4.0
    assert np.allclose(loop.angular_frequencies(), base * np.array([1, 3, 5, 7]))


def test_default_grid_size_covers_quadrature_floor():
    assert default_grid_size(1) == 13
    assert default_grid_size(8) == 41
    for m in (1, 3, 8, 20):
        assert default_grid_size(m) >= 4 * m + 1


def test_sample_trajectory_matches_naive_evaluation():
    rng = np.random.default_rng(11)
    loop = random_loop(rng, n_bodies=3, dim=2, harmonics=4)
    positions = sample_trajectory(loop, 20)
    expected = naive_positions(loop, quadrature_grid(loop, 20).times)
    assert np.abs(positions - expected).max() < 1e-13


def test_sample_trajectory_grid_floor():
    loop = LoopConfiguration(1, 2, TWO_PI, np.zeros((1, 4, 2, 2)))
    with pytest.raises(GridTooCoarse):
        sample_trajectory(loop, 16)  # floor is 4*4+1 = 17
    sample_trajectory(loop, 17)  # at the floor: fine


def test_antiperiodicity_and_zero_mean_on_even_grid():
    rng = np.random.default_rng(7)
    loop = random_loop(rng, n_bodies=2, harmonics=5)
    pos = sample_trajectory(loop, 44)  # even: t_j + T/2 lands back on the grid
    assert np.abs(np.roll(pos, -22, axis=0) + pos).max() < 1e-12
    assert np.abs(pos.mean(axis=0)).max() < 1e-13


def test_acceleration_is_second_derivative():
    rng = np.random.default_rng(5)
    loop = random_loop(rng, harmonics=3)
    acc = sample_acceleration(loop, 64)
    positions = sample_trajectory(loop, 64)
    times = quadrature_grid(loop, 64).times
    h = 1e-5
    for j in (0, 10, 33):
        t = times[j]
        fd = (
            evaluate_positions(loop, np.array([t + h]))[0]
            - 2 * positions[j]
            + evaluate_positions(loop, np.array([t - h]))[0]
        ) / h**2
        assert np.abs(acc[j] - fd).max() < 1e-5


def test_kinetic_energy_against_quadrature_oracle():
    # single body of mass 1.5, x(t) = (0.7 cos t + 0.2 sin 3t, -0.4 sin t):
    # dense trapezoid quadrature of (m/2) |xdot|^2 gives 2.3797564350942677,
    # matching the closed form (m/2)(T/2)(0.7^2 + 0.6^2 + 0.4^2) below.
    coeff = np.zeros((1, 2, 2, 2))
    coeff[0, 0, 0, 0] = 0.7
    coeff[0, 1, 1, 0] = 0.2
    coeff[0, 0, 1, 1] = -0.4
    loop = LoopConfiguration(1, 2, TWO_PI, coeff)
    assert kinetic_energy(loop, np.array([1.5])) == pytest.approx(
        2.379756435094269, abs=1e-12
    )


def test_kinetic_energy_mass_shape_checked():
    loop = LoopConfiguration(2, 2, TWO_PI, np.zeros((2, 1, 2, 2)))
    with pytest.raises(ShapeMismatch):
        kinetic_energy(loop, np.array([1.0]))


def test_norms_match_quadrature_on_random_loops():
    rng = np.random.default_rng(19)
    for _ in range(5):
        loop = random_loop(rng, n_bodies=2, harmonics=3)
        positions = sample_trajectory(loop, 4096)
        velocities = analytic_velocities(loop, quadrature_grid(loop, 4096).times)
        w = loop.period / 4096  # periodic rectangle rule, spectrally accurate
        pos_sq = (positions**2).sum(axis=2).sum(axis=0) * w
        vel_sq = (velocities**2).sum(axis=2).sum(axis=0) * w
        l2_norms_sq = 0.5 * loop.period * harmonic_energies(loop).sum(axis=1)  # Parseval
        assert np.abs(l2_norms_sq - pos_sq).max() < 1e-10
        assert np.abs(velocity_l2_norms_squared(loop) - vel_sq).max() < 1e-9


def test_harmonic_energies_shape_and_values():
    coeff = np.zeros((1, 2, 2, 2))
    coeff[0, 0, 0, 0] = 3.0
    coeff[0, 1, 1, 1] = 4.0
    loop = LoopConfiguration(1, 2, TWO_PI, coeff)
    assert harmonic_energies(loop).tolist() == [[9.0, 16.0]]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_harmonic_energies_equal_the_sum_over_both_axes_bit_for_bit(dim):
    # the left-to-right adds give the bits of numpy's sum over the last two
    # axes, on a batch and on single loops of either float type
    rng = np.random.default_rng(40 + dim)
    shape = (5, 3, 6, 2, dim)
    coeffs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
    batch = LoopBatch(2.5, coeffs)
    assert np.array_equal(harmonic_energies(batch), (coeffs**2).sum(axis=(-2, -1)))
    for dtype in (float, np.longdouble):
        loop = LoopConfiguration(3, dim, 2.5, coeffs[1].astype(dtype))
        want = (loop.coefficients**2).sum(axis=(-2, -1))
        got = harmonic_energies(loop)
        assert got.dtype == want.dtype and got.shape == (3, 6)
        assert np.array_equal(got, want)


def test_h1_distance_single_mode_literal():
    # loops differing by 0.3 in one third-harmonic cosine component:
    # closed form sqrt((T/2)(1 + 9) 0.3^2) = 1.6814973649193785
    base = np.zeros((1, 2, 2, 2))
    other = base.copy()
    other[0, 1, 0, 0] = 0.3
    la = LoopConfiguration(1, 2, TWO_PI, base)
    lb = LoopConfiguration(1, 2, TWO_PI, other)
    assert h1_distance(la, lb) == pytest.approx(1.6814973649193785, abs=1e-12)
    assert h1_distance(lb, la) == h1_distance(la, lb)
    assert h1_distance(la, la) == 0.0


def test_h1_distance_pads_shorter_harmonic_tail():
    rng = np.random.default_rng(23)
    loop = random_loop(rng, harmonics=3)
    padded = np.concatenate([loop.coefficients, np.zeros((2, 2, 2, 2))], axis=1)
    wide = LoopConfiguration(2, 2, TWO_PI, padded)
    assert h1_distance(loop, wide) == 0.0


def test_h1_distance_rejects_mismatched_loops():
    a = LoopConfiguration(1, 2, TWO_PI, np.zeros((1, 1, 2, 2)))
    b = LoopConfiguration(1, 2, 1.0, np.zeros((1, 1, 2, 2)))
    with pytest.raises(ShapeMismatch):
        h1_distance(a, b)


def test_shift_loop_translates_time():
    rng = np.random.default_rng(31)
    loop = random_loop(rng, harmonics=4)
    tau = 0.83
    shifted = shift_loop(loop, tau)
    times = np.linspace(0.0, TWO_PI, 9)
    got = evaluate_positions(shifted, times)
    want = evaluate_positions(loop, times + tau)
    assert np.abs(got - want).max() < 1e-12


def test_shift_by_half_period_negates():
    rng = np.random.default_rng(37)
    loop = random_loop(rng, harmonics=3)
    shifted = shift_loop(loop, 0.5 * loop.period)
    assert np.abs(shifted.coefficients + loop.coefficients).max() < 1e-12


def test_evaluate_positions_matches_grid_sampling():
    rng = np.random.default_rng(41)
    loop = random_loop(rng, harmonics=3)
    free = evaluate_positions(loop, np.asarray(quadrature_grid(loop, 16).times))
    assert np.abs(free - sample_trajectory(loop, 16)).max() < 1e-13


def test_dtype_preserved_through_sampling():
    coeff = np.zeros((1, 1, 2, 2), dtype=np.longdouble)
    coeff[0, 0, 0, 0] = np.longdouble(1) / 3
    loop = LoopConfiguration(1, 2, TWO_PI, coeff)
    twin = LoopConfiguration(1, 2, TWO_PI, coeff.astype(float))
    assert loop.coefficients.dtype == np.longdouble
    # float64 first, so a grid cached by (T, M, n_t) alone would be served here
    assert quadrature_grid(twin, 8).basis.dtype == np.float64
    grid = quadrature_grid(loop, 8)
    assert grid is not quadrature_grid(twin, 8)
    assert grid is quadrature_grid(loop, 8)
    assert grid.basis.dtype == np.longdouble
    assert sample_trajectory(loop, 8).dtype == np.longdouble
    assert sample_acceleration(loop, 8).dtype == np.longdouble


def test_cached_grid_is_read_only():
    grid = quadrature_grid(random_loop(np.random.default_rng(43), harmonics=3))
    for arr in (grid.times, grid.omega, grid.basis, grid.acceleration):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # sampled positions are a fresh array: writing to them leaves the cache intact
    loop = random_loop(np.random.default_rng(44), harmonics=3)
    positions = sample_trajectory(loop)
    first = positions.copy()
    positions[0] = 1.0
    assert np.array_equal(sample_trajectory(loop), first)


def test_shift_distances_match_shifted_h1_oracle():
    rng = np.random.default_rng(43)
    for shifts in (TIME_SHIFTS, 2):  # dedupe's full and half-period grids
        taus = [k * TWO_PI / shifts for k in range(shifts)]
        for harmonics in ((4, 4), (3, 5)):  # (3, 5) pads the shorter tail
            a = random_loop(rng, n_bodies=3, harmonics=harmonics[0])
            b = random_loop(rng, n_bodies=3, harmonics=harmonics[1])
            got = _shift_distances_sq(a, b, shifts)
            want = np.array([h1_distance(shift_loop(a, tau), b) ** 2 for tau in taus])
            assert got.shape == (shifts,)
            assert np.all(np.abs(got - want) <= 1e-12 * want)
            assert abs(got.min() - want.min()) <= 1e-12 * want.min()


def test_shift_distances_find_own_shifted_copy():
    rng = np.random.default_rng(47)
    loop = random_loop(rng, n_bodies=3, harmonics=4)
    for shifts, k in ((TIME_SHIFTS, 5), (2, 1)):
        copy = shift_loop(loop, k * TWO_PI / shifts)
        got = _shift_distances_sq(loop, copy, shifts)
        # cancellation may leave the match a few ulp below zero; no sqrt, so no NaN
        assert np.all(np.isfinite(got))
        assert int(got.argmin()) == k
        assert got.min() < 1e-12


def test_shift_distances_reject_mismatched_loops():
    base = LoopConfiguration(2, 2, TWO_PI, np.zeros((2, 1, 2, 2)))
    for other in (
        LoopConfiguration(3, 2, TWO_PI, np.zeros((3, 1, 2, 2))),
        LoopConfiguration(2, 3, TWO_PI, np.zeros((2, 1, 2, 3))),
        LoopConfiguration(2, 2, 1.0, np.zeros((2, 1, 2, 2))),
    ):
        with pytest.raises(ShapeMismatch):
            _shift_distances_sq(base, other, 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_bodies", [1, 2, 3, 6])
def test_pair_separations_equal_per_pair_subtraction_bit_for_bit(n_bodies, dim):
    rng = np.random.default_rng(10 * n_bodies + dim)
    for scale, dtype in ((0.3, float), (2.0, float), (2.0, np.longdouble)):
        loop = random_loop(rng, n_bodies=n_bodies, dim=dim, scale=scale)
        positions = sample_trajectory(
            LoopConfiguration(n_bodies, dim, TWO_PI, loop.coefficients.astype(dtype))
        )
        diff, dist = pair_separations(positions)
        want_diff, want_dist = per_pair_separations(positions)
        for got, want in ((diff, want_diff), (dist, want_dist)):
            assert got.dtype == want.dtype
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)
    pair_map = _pair_map(n_bodies, dim)
    assert pair_map is _pair_map(n_bodies, dim)
    assert pair_map.shape == (n_bodies * dim, n_bodies * (n_bodies - 1) // 2 * dim)
    assert not pair_map.flags.writeable
