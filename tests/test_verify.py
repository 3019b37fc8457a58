import itertools
import json
import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import TWO_PI, balance_radius, make_spec, pair_circle, random_loop
from orbitact import loopspace, potential, verify
from orbitact.errors import ShapeMismatch, SingleBody, ThetaOutOfRange
from orbitact.loopspace import (
    LoopBatch,
    LoopConfiguration,
    harmonic_energies,
    kinetic_energy,
    velocity_l2_norms_squared,
)
from orbitact.action import action, action_value
from orbitact.potential import BLEND_LINEAR, strong_force_margin
from orbitact.verify import (
    LEDGER_CHUNK,
    _ledger_check,
    _random_body_groups,
    check_blend_c1,
    check_holder_bound,
    check_modulation_symmetry,
    check_pairwise_identity,
    check_wirtinger,
    coercivity_bound,
    coercivity_constants,
    collision_blowup_probe,
    euler_lagrange_residual,
    run_inequality_ledger,
    solve_energy_bound,
    wirtinger_kinetic_side,
)

LEDGER_NAMES = {
    "pairwise_identity",
    "holder_upper_bound",
    "wirtinger",
    "wirtinger_first_harmonic",
    "strong_force_margin",
    "modulation_symmetry",
    "blend_c1",
    "antiperiodicity",
    "zero_mean",
}


def test_euler_lagrange_residual_near_zero_on_balanced_circle():
    spec = make_spec()
    loop = pair_circle(balance_radius(spec, 1), harmonics=3)
    assert euler_lagrange_residual(spec, loop) < 1e-12
    # a generic loop is far from solving the motion equations
    rng = np.random.default_rng(5)
    assert euler_lagrange_residual(spec, random_loop(rng, harmonics=3)) > 1e-3


def test_euler_lagrange_residual_rejects_incompatible_loop():
    # the residual accepts exactly the (spec, loop) pairs that the action accepts
    spec = make_spec()
    with pytest.raises(ShapeMismatch):
        euler_lagrange_residual(spec, pair_circle(0.5, period=1.0))
    with pytest.raises(ShapeMismatch):
        euler_lagrange_residual(spec, LoopConfiguration(3, 2, TWO_PI, np.ones((3, 1, 2, 2))))


def _residual_inline(spec, loop):
    """The residual's formula on its own route: the loop's own sampling, a pair
    kernel that grid_potential binds afresh, and the closed-form kinetic energy."""
    grid = loopspace.quadrature_grid(loop)
    n_t = grid.times.shape[0]
    positions = loopspace.sample_trajectory(loop, n_t)
    acc = loopspace.sample_acceleration(loop, n_t)
    (_, forces), _ = potential.grid_potential(spec, grid.times, positions, 1)
    res = spec.masses[None, :, None] * acc + forces
    l2 = math.sqrt(float((loop.period / n_t) * (res**2).sum()))
    return l2 / (1.0 + kinetic_energy(loop, spec.masses))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_bodies", [1, 2, 3, 6])
def test_euler_lagrange_residual_equals_the_inline_formula_bit_for_bit(n_bodies, dim, dtype):
    # One loop inside r1 and one whose pair distances cross r1, the start of
    # the blend window, under modulation with unequal masses.
    spec = make_spec(masses=np.linspace(0.7, 1.9, n_bodies), modulation_eps=0.3)
    base = random_loop(np.random.default_rng(10 * n_bodies + dim), n_bodies=n_bodies, dim=dim)
    _, dist = loopspace.pair_separations(loopspace.sample_trajectory(base))
    widest, closest = (dist.max(), dist.min()) if n_bodies > 1 else (1.0, 1.0)
    inner, crossing = 0.9 * spec.r1 / widest, spec.r1 / np.sqrt(widest * closest)
    for scale in (inner, crossing):
        loop = LoopConfiguration(n_bodies, dim, TWO_PI, (base.coefficients * scale).astype(dtype))
        assert loop.coefficients.dtype == dtype
        if n_bodies > 1:
            _, dist = loopspace.pair_separations(loopspace.sample_trajectory(loop))
            assert dist.max() < spec.r1 if scale == inner else dist.min() < spec.r1 < dist.max()
        assert euler_lagrange_residual(spec, loop) == _residual_inline(spec, loop)


def test_pairwise_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        masses = rng.uniform(0.1, 4.0, size=n)
        positions = rng.normal(scale=2.0, size=(n, 3))
        assert check_pairwise_identity(masses, positions) < 1e-10


def test_holder_bound_nonnegative_in_band():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        masses = rng.uniform(0.1, 4.0, size=n)
        positions = rng.normal(scale=2.0, size=(n, 2))
        for theta in (0.0, 0.5, 1.0, 1.5, 1.9):
            assert check_holder_bound(masses, positions, theta) >= -1e-12


def test_holder_bound_reverses_below_zero():
    # for theta < 0 the power mean runs the other way: find a configuration
    # with negative slack, confirming the band restriction is real
    masses = np.array([1.0, 1.0, 1.0])
    positions = np.array([[0.0, 0.0], [0.01, 0.0], [10.0, 0.0]])
    assert check_holder_bound(masses, positions, -1.0) < 0


def test_holder_bound_rejects_theta_at_two():
    with pytest.raises(ThetaOutOfRange):
        check_holder_bound(np.ones(2), np.zeros((2, 2)), 2.0)


def test_wirtinger_frozen_value_and_tightness():
    # mixed loop: unit first-harmonic cosine plus 0.5 third-harmonic sine;
    # slack (T/2)(0 * 1 + 8 * 0.25) = 2 pi
    coeffs = np.zeros((1, 2, 2, 2))
    coeffs[0, 0, 0, 0] = 1.0
    coeffs[0, 1, 1, 1] = 0.5
    loop = LoopConfiguration(1, 2, TWO_PI, coeffs)
    assert check_wirtinger(loop)[0] == pytest.approx(TWO_PI, abs=1e-12)

    pure = LoopConfiguration(1, 2, TWO_PI, coeffs[:, :1])
    assert abs(check_wirtinger(pure)[0]) < 1e-14


def test_wirtinger_nonnegative_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        loop = random_loop(rng, n_bodies=3, harmonics=5, period=3.7)
        slack = check_wirtinger(loop)
        scale = 1.0 + wirtinger_kinetic_side(loop)
        assert (slack / scale).min() >= -1e-12


def test_modulation_symmetry():
    spec = make_spec(modulation_eps=0.4)
    rng = np.random.default_rng(37)
    for _ in range(20):
        t = float(rng.uniform(0, TWO_PI))
        xi = rng.normal(size=2) * 2.0
        assert check_modulation_symmetry(spec, 0, 1, t, xi) < 1e-14


def test_blend_c1_hermite_vs_linear():
    assert check_blend_c1(make_spec()) < 1e-12
    mismatch = check_blend_c1(make_spec(blend=BLEND_LINEAR))
    # chord slope 0.28 vs tail slope 0.01: relative mismatch 0.27 / 1.01
    assert mismatch == pytest.approx(0.27 / 1.01, abs=1e-12)


def test_blend_c1_audits_against_the_branches(monkeypatch):
    # a blend built from a wrong inner slope must fail its audit
    honest = potential._blend_data

    def skewed(spec):
        v0, d0, v1, d1, h = honest(spec)
        return v0, 1.1 * d0, v1, d1, h

    monkeypatch.setattr(potential, "_blend_data", skewed)
    monkeypatch.setattr(verify, "_blend_data", skewed, raising=False)
    # d0 = 0.25 becomes 0.275: relative slope mismatch 0.025 / 1.25
    assert check_blend_c1(make_spec()) == pytest.approx(0.02, rel=1e-9)


def test_solve_energy_bound_closed_forms():
    assert solve_energy_bound(0.0, 0.0, 1.0, 10.0) == 10.0
    assert solve_energy_bound(0.0, 2.0, 1.5, 3.0) == 5.0
    assert solve_energy_bound(0.5, 2.0, 0.0, 3.0) == 5.5
    assert solve_energy_bound(1.0, 0.0, 1.0, 0.0) == 1.0
    assert solve_energy_bound(0.0, 0.0, 1.0, -1.0) == 0.0


def test_solve_energy_bound_bisection_case():
    # largest E with E - 0.35 E^0.25 - 0.12 <= 7, from an extended-precision
    # bisection run: 7.703088212762532
    got = solve_energy_bound(0.35, 0.12, 0.5, 7.0)
    assert got == pytest.approx(7.703088212762532, rel=1e-12)
    # the returned value saturates the inequality
    assert got - 0.35 * got**0.25 - 0.12 == pytest.approx(7.0, abs=1e-9)


def test_solve_energy_bound_negative_theta():
    got = solve_energy_bound(0.2, 0.1, -1.0, 4.0)
    assert got - 0.2 * got**-0.5 - 0.1 == pytest.approx(4.0, abs=1e-9)


def test_solve_energy_bound_empty_sublevel():
    assert solve_energy_bound(1.0, 0.0, 1.0, -10.0) == 0.0
    assert solve_energy_bound(0.5, 0.0, 0.5, -10.0) == 0.0


def test_solve_energy_bound_input_checks():
    with pytest.raises(ThetaOutOfRange):
        solve_energy_bound(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        solve_energy_bound(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_energy_bound(0.0, -1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "C, B, theta, K",
    [
        # K = NaN gave 0.1575 at theta 0.5, 1.0 at theta -0.5 and NaN at theta 0 or 1
        (1.0, 1.0, 0.5, np.nan),
        (1.0, 1.0, -0.5, np.nan),
        (1.0, 1.0, 0.0, np.nan),
        (1.0, 1.0, 1.0, np.nan),
        # theta = NaN gave 1.0
        (1.0, 1.0, np.nan, 1.0),
        # K = inf gave inf at theta 0 and an ArithmeticError at theta 0.5
        (1.0, 1.0, 0.0, np.inf),
        (1.0, 1.0, 0.5, np.inf),
        (1.0, 1.0, 0.5, -np.inf),
        (np.nan, 1.0, 0.5, 1.0),
        (np.inf, 1.0, 0.5, 1.0),
        (1.0, np.inf, 0.5, 1.0),
        (1.0, 1.0, -np.inf, 1.0),
        (1.0, 1.0, np.inf, 1.0),
    ],
)
def test_solve_energy_bound_rejects_non_finite_inputs(C, B, theta, K):
    with pytest.raises(ValueError, match="must be finite"):
        solve_energy_bound(C, B, theta, K)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None, 1j])
def test_solve_energy_bound_refuses_non_real_arguments(position, value):
    # solve_energy_bound(True, 0.0, 1.0, 2.0) returned 4.0, and "1" or None
    # died with a bare TypeError from math.isfinite
    args = [1.0, 0.5, 0.5, 2.0]
    args[position] = value
    with pytest.raises(ValueError, match="must be real numbers"):
        solve_energy_bound(*args)


def test_solve_energy_bound_takes_numpy_reals():
    want = solve_energy_bound(1.0, 0.5, 0.5, 2.0)
    assert solve_energy_bound(np.float64(1.0), np.float32(0.5), 0.5, np.int64(2)) == want
    assert solve_energy_bound(1, 0, 1, 3) == solve_energy_bound(1.0, 0.0, 1.0, 3.0)


def test_coercivity_bound_refuses_a_non_real_level():
    for K in (True, False, "2", None):
        with pytest.raises(ValueError, match="must be real numbers"):
            coercivity_bound(make_spec(), K)


def test_coercivity_bound_rejects_non_finite_level():
    for K in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            coercivity_bound(make_spec(), K)


def test_coercivity_bound_monotone_and_holds_on_samples():
    spec = make_spec()
    C, B = coercivity_constants(spec)
    assert C > 0 and B > 0
    assert coercivity_bound(spec, 5.0) <= coercivity_bound(spec, 50.0)

    # the defining property: any loop with action below K has kinetic part
    # below A(K)
    rng = np.random.default_rng(41)
    K = 40.0
    bound = coercivity_bound(spec, K)
    checked = 0
    for _ in range(200):
        loop = random_loop(rng, harmonics=4, scale=float(rng.uniform(0.2, 2.0)))
        value, kinetic, _ = action_value(spec, loop)
        if value <= K:
            checked += 1
            assert kinetic <= bound
    assert checked > 20


def test_blowup_probe_frozen_values_and_growth():
    spec = make_spec()
    probe = collision_blowup_probe(spec, j_max=20)
    assert probe.separations.tolist() == [2.0**-j for j in range(1, 21)]
    # first three values: 2 pi (2^-2j-2 + 2^2j)
    assert probe.values[0] == pytest.approx(25.525440310417068, rel=1e-14)
    assert probe.values[1] == pytest.approx(100.62913968529806, rel=1e-14)
    assert probe.values[2] == pytest.approx(402.1484033520997, rel=1e-14)
    assert probe.strictly_increasing
    assert probe.final_value > 1e6


def test_blowup_probe_input_checks():
    with pytest.raises(SingleBody):
        collision_blowup_probe(make_spec(masses=np.array([1.0])))
    with pytest.raises(ValueError):
        collision_blowup_probe(make_spec(), j_max=0)
    # 2.5 and 3.0 probed 3 separations and True probed 1
    for bad in (2.5, np.float64(3.0), True):
        with pytest.raises(ValueError, match="j_max must be an integer"):
            collision_blowup_probe(make_spec(), j_max=bad)
    assert collision_blowup_probe(make_spec(), j_max=np.int64(3)).separations.size == 3


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_blowup_probe_values_equal_single_circle_actions_bit_for_bit(alpha):
    spec = make_spec(alpha=alpha, modulation_eps=0.3, masses=np.array([0.8, 1.3, 2.0]))
    probe = collision_blowup_probe(spec, j_max=20)
    pair_spec = replace(spec, masses=spec.masses[:2])
    for sep, value in zip(probe.separations, probe.values):
        coeffs = np.zeros((2, 1, 2, 2))
        coeffs[0, 0, 0, 0] = coeffs[0, 0, 1, 1] = 0.5 * sep
        coeffs[1] = -coeffs[0]
        assert value == action(pair_spec, LoopConfiguration(2, 2, TWO_PI, coeffs)).value


def test_blowup_probe_range_is_checked():
    # At alpha = 2 the values stay finite and increasing up to j_max = 510;
    # beyond, the action overflows (511) or the circle collides on the grid
    # (600). No numpy warning escapes: pytest turns warnings into errors.
    probe = collision_blowup_probe(make_spec(), j_max=510)
    assert probe.strictly_increasing
    assert np.isfinite(probe.values).all()
    for j_max in (511, 600):
        with pytest.raises(ValueError, match=f"j_max={j_max}"):
            collision_blowup_probe(make_spec(), j_max=j_max)


def test_ledger_passes_on_reference_problem():
    report = run_inequality_ledger(make_spec(modulation_eps=0.2), 2, 4, 60, seed=7)
    assert report.passed
    assert {c.name for c in report.checks} == LEDGER_NAMES
    for check in report.checks:
        assert check.passed
        assert check.samples > 0
    # the report serializes cleanly
    json.dumps(report.to_dict())


def test_ledger_fails_on_linear_blend():
    report = run_inequality_ledger(make_spec(blend=BLEND_LINEAR), 2, 4, 10, seed=7)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"blend_c1"}


def test_ledger_zero_samples_is_vacuous_pass():
    report = run_inequality_ledger(make_spec(), 2, 4, 0, seed=0)
    assert report.passed
    assert all(c.samples == 0 for c in report.checks)


def test_ledger_deterministic():
    a = run_inequality_ledger(make_spec(), 2, 4, 30, seed=3)
    b = run_inequality_ledger(make_spec(), 2, 4, 30, seed=3)
    assert a.to_dict() == b.to_dict()


def test_ledger_rejects_negative_samples():
    with pytest.raises(ValueError, match="n_samples must be >= 0"):
        run_inequality_ledger(make_spec(), 2, 4, -5, seed=0)


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"n_samples": True}, "n_samples must be an integer"),
        ({"n_samples": 10.0}, "n_samples must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"seed": 1.0}, "seed must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"dim": 0}, "dim must be >= 1"),
        ({"dim": 2.0}, "dim must be an integer"),
        ({"harmonics": 0}, "harmonics must be >= 1"),
        ({"harmonics": True}, "harmonics must be an integer"),
    ],
)
def test_ledger_validates_integer_arguments(bad, match):
    args = {"dim": 2, "harmonics": 4, "n_samples": 5, "seed": 0, **bad}
    with pytest.raises(ValueError, match=match):
        run_inequality_ledger(make_spec(), **args)


def test_ledger_accepts_numpy_integers_and_stores_ints():
    report = run_inequality_ledger(make_spec(), np.int64(2), np.int32(4), np.int64(5), np.uint8(3))
    assert type(report.samples) is int and type(report.seed) is int
    assert json.loads(json.dumps(report.to_dict())) == run_inequality_ledger(make_spec(), 2, 4, 5, 3).to_dict()


@pytest.mark.parametrize(
    "n, counts",
    [
        (1, [1, 1, 1, 1, 1, 1, 1, 1, 1]),
        (7, [7, 7, 7, 2, 7, 7, 1, 1, 1]),
        (25, [25, 25, 25, 7, 25, 25, 1, 2, 2]),
    ],
)
def test_ledger_per_check_sample_counts(n, counts):
    # n per sampled check, ceil(n/4) first-harmonic loops, one blend check and
    # max(n // 10, 1) representation loops, in the report's check order
    report = run_inequality_ledger(make_spec(modulation_eps=0.2), 2, 4, n, seed=1)
    assert [c.samples for c in report.checks] == counts
    assert report.samples == n


def test_ledger_check_fails_on_nan_slack():
    for lower in (True, False):
        check = _ledger_check("probe", [0.0, float("nan"), 0.0], 1e-12, lower=lower)
        assert check.samples == 3 and not check.passed


@pytest.mark.parametrize("n_bodies", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim", [1, 3])
def test_pair_checks_batched_equal_single_calls(n_bodies, dim):
    # two leading batch axes; every entry equals the single call bit for bit
    rng = np.random.default_rng(10 * n_bodies + dim)
    masses = rng.uniform(0.1, 3.0, size=(4, 10, n_bodies))
    positions = rng.normal(scale=1.5, size=(4, 10, n_bodies, dim))
    pairs = list(zip(masses.reshape(40, -1), positions.reshape(40, n_bodies, dim)))
    got = check_pairwise_identity(masses, positions)
    assert got.shape == (4, 10)
    assert np.array_equal(got.ravel(), [check_pairwise_identity(m, x) for m, x in pairs])
    for theta in (-0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 1.9):
        got = check_holder_bound(masses, positions, theta)
        assert np.array_equal(got.ravel(), [check_holder_bound(m, x, theta) for m, x in pairs])
    # one configuration keeps its scalar type
    assert type(check_pairwise_identity(*pairs[0])) is np.float64
    assert type(check_holder_bound(*pairs[0], 0.5)) is float


@pytest.mark.parametrize("n_bodies", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim", [1, 3])
def test_loop_checks_batched_equal_single_calls(n_bodies, dim):
    rng = np.random.default_rng(20 * n_bodies + dim)
    coeffs = rng.standard_normal((3, 7, n_bodies, 5, 2, dim))
    coeffs[:, ::4, :, 1:] = 0.0  # some pure first-harmonic loops
    batch = LoopBatch(3.7, coeffs)
    loops = [LoopConfiguration(n_bodies, dim, 3.7, c) for c in coeffs.reshape(21, n_bodies, 5, 2, dim)]
    for fn in (check_wirtinger, wirtinger_kinetic_side, harmonic_energies, loopspace.sample_trajectory):
        got = fn(batch)
        assert got.shape[:2] == (3, 7)
        assert np.array_equal(got.reshape(21, *got.shape[2:]), [fn(loop) for loop in loops])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_wirtinger_checks_equal_their_energies_helpers_bit_for_bit(dim):
    # the ledger computes a chunk's harmonic energies once and hands them to both helpers
    rng = np.random.default_rng(50 + dim)
    coeffs = rng.standard_normal((9, 4, 5, 2, dim))
    for loop in (LoopBatch(3.7, coeffs), LoopConfiguration(4, dim, 3.7, coeffs[2])):
        energies = harmonic_energies(loop)
        assert np.array_equal(check_wirtinger(loop), verify._wirtinger_slack(loop, energies))
        kinetic = wirtinger_kinetic_side(loop)
        assert np.array_equal(kinetic, verify._wirtinger_kinetic(loop, energies))
        assert np.array_equal(kinetic, (loop.period / TWO_PI) ** 2 * velocity_l2_norms_squared(loop))


@pytest.mark.parametrize("n_bodies", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim", [1, 3])
def test_modulation_symmetry_batched_equals_single_calls(n_bodies, dim):
    spec = make_spec(masses=np.linspace(0.5, 2.5, n_bodies), modulation_eps=0.3)
    rng = np.random.default_rng(30 * n_bodies + dim)
    t = rng.uniform(0.0, spec.period, size=60)
    xi = rng.normal(scale=3.0, size=(60, dim))
    got = check_modulation_symmetry(spec, 0, n_bodies - 1, t, xi)
    want = [check_modulation_symmetry(spec, 0, n_bodies - 1, float(a), b) for a, b in zip(t, xi)]
    assert np.array_equal(got, want)
    assert type(want[0]) is float


def _drawn_bodies(rng, n, dim):
    """(index, masses, positions) per sample, drawn one sample at a time in the ledger's pair-block order.

    The body counts come first, then per body count, in increasing order,
    every member's masses and then every member's positions.
    """
    counts = rng.integers(2, 7, size=n)
    bodies = []
    for count in np.unique(counts):
        members = np.flatnonzero(counts == count)
        masses = [rng.uniform(0.1, 3.0, size=count) for _ in members]
        positions = [rng.normal(scale=1.5, size=(count, dim)) for _ in members]
        bodies += zip(members, masses, positions)
    return bodies


def _sample_by_sample_ledger(spec, dim, harmonics, n_samples, seed):
    """The ledger drawn and checked one sample at a time: the oracle.

    Each block draws its fields one sample at a time, in the ledger's order,
    so the stream matches its one call per field. Both pair checks read one
    body population. The pairwise slack is relative to the identity's own LHS.
    """
    rng = np.random.default_rng(seed)
    n = n_samples
    checks = []

    bodies = _drawn_bodies(rng, n, dim)
    slacks = []
    for _, masses, positions in bodies:
        iu, ju, _ = loopspace.body_pairs(masses.size)
        sq = ((positions[iu] - positions[ju]) ** 2).sum(axis=1)
        lhs = float((masses[iu] * masses[ju] * sq).sum())
        slacks.append(check_pairwise_identity(masses, positions) / (1.0 + lhs))
    checks.append(_ledger_check("pairwise_identity", slacks, 1e-10, lower=False))

    theta_grid = [0.0, 0.5, 1.0, 1.5, 1.9]
    if 0.0 <= spec.theta < 2.0:
        theta_grid.append(spec.theta)
    slacks = []
    for idx, masses, positions in bodies:
        theta = theta_grid[idx % len(theta_grid)]
        slack = check_holder_bound(masses, positions, theta)
        iu, ju, _ = loopspace.body_pairs(masses.size)
        w = masses[iu] * masses[ju]
        rsq = ((positions[iu] - positions[ju]) ** 2).sum(axis=1)
        rhs = w.sum() ** ((2 - theta) / 2) * (w @ rsq) ** (theta / 2)
        slacks.append(slack / (1.0 + rhs))
    checks.append(_ledger_check("holder_upper_bound", slacks, 1e-12, lower=True))

    slacks, slacks_eq = [], []
    orders = np.arange(1, 2 * harmonics, 2, dtype=float)
    first = -(-n // 4)  # the last ceil(n/4) loops are drawn with the first harmonic only
    for idx in range(n):
        tight = idx >= n - first
        drawn = 1 if tight else harmonics
        coeffs = rng.standard_normal((spec.n_bodies, drawn, 2, dim))
        coeffs /= orders[None, :drawn, None, None] ** 2
        loop = LoopConfiguration(spec.n_bodies, dim, spec.period, coeffs)
        slack = check_wirtinger(loop)
        scale = 1.0 + wirtinger_kinetic_side(loop)
        slacks.append(float((slack / scale).min()))
        if tight:
            slacks_eq.append(float((np.abs(slack) / scale).max()))
    checks.append(_ledger_check("wirtinger", slacks, 1e-12, lower=True))
    checks.append(_ledger_check("wirtinger_first_harmonic", slacks_eq, 1e-12, lower=False))

    pair_spec = spec if spec.n_bodies >= 2 else replace(
        spec, masses=np.asarray([spec.masses[0], spec.masses[0]])
    )
    v_coeff = (1.0 - spec.modulation_eps) * pair_spec.masses[0] * pair_spec.masses[1] * spec.a
    slacks = []
    for _ in range(n):
        r = float(np.exp(rng.uniform(np.log(1e-8 * spec.r1), np.log(spec.r1 * (1 - 1e-12)))))
        margin = strong_force_margin(pair_spec, 0, 1, r)
        slacks.append(margin / max(v_coeff * r**-spec.alpha, 1e-300))
    checks.append(_ledger_check("strong_force_margin", slacks, 1e-12, lower=True))

    slacks = []
    times = [rng.uniform(0.0, spec.period) for _ in range(n)]
    directions = [rng.normal(size=dim) for _ in range(n)]
    radii = [rng.uniform(0.05, 3.0 * spec.r2) for _ in range(n)]
    for t, xi, radius in zip(times, directions, radii):
        xi = xi / max(np.linalg.norm(xi), 1e-12) * radius
        slacks.append(check_modulation_symmetry(pair_spec, 0, 1, t, xi))
    checks.append(_ledger_check("modulation_symmetry", slacks, 1e-12, lower=False))

    checks.append(_ledger_check("blend_c1", [check_blend_c1(spec)] if n else [], 1e-10, lower=False))

    slacks_ap, slacks_zm = [], []
    n_t = 4 * harmonics + 10
    for _ in range(max(n // 10, min(n, 1))):
        coeffs = rng.standard_normal((spec.n_bodies, harmonics, 2, dim))
        coeffs /= orders[None, :, None, None] ** 2
        loop = LoopConfiguration(spec.n_bodies, dim, spec.period, coeffs)
        pos = loopspace.sample_trajectory(loop, n_t)
        scale = 1.0 + float(np.abs(pos).max())
        slacks_ap.append(float(np.abs(np.roll(pos, -(n_t // 2), axis=0) + pos).max()) / scale)
        slacks_zm.append(float(np.abs(pos.mean(axis=0)).max()) / scale)
    checks.append(_ledger_check("antiperiodicity", slacks_ap, 1e-12, lower=False))
    checks.append(_ledger_check("zero_mean", slacks_zm, 1e-12, lower=False))
    return {"samples": n, "seed": seed, "passed": all(c.passed for c in checks),
            "checks": [c.to_dict() for c in checks]}


# three chunks of general Wirtinger loops, then one of first-harmonic loops
MULTI_CHUNK_SAMPLES = 3 * LEDGER_CHUNK + 17


@pytest.mark.parametrize(
    "n_bodies, dim, theta, eps, n_samples",
    [
        (n_bodies, dim, theta, eps, n_samples)
        for n_bodies, dim, (theta, eps), n_samples in itertools.product(
            (1, 2, 6), (1, 3), ((1.0, 0.0), (-0.5, 0.3)), (0, 1, 300)
        )
    ]
    + [
        (n_bodies, 2, theta, eps, MULTI_CHUNK_SAMPLES)
        for n_bodies, (theta, eps) in itertools.product((2, 6), ((1.0, 0.0), (-0.5, 0.3)))
    ],
)
def test_ledger_equals_sample_by_sample_oracle(n_bodies, dim, theta, eps, n_samples):
    spec = make_spec(masses=np.linspace(0.7, 1.9, n_bodies), theta=theta, modulation_eps=eps)
    seed = 11 * n_bodies + dim
    report = run_inequality_ledger(spec, dim, 3, n_samples, seed)
    assert report.to_dict() == _sample_by_sample_ledger(spec, dim, 3, n_samples, seed)


@pytest.mark.parametrize(
    "n_bodies, dim, alpha, theta, eps, n_samples",
    [
        (n_bodies, dim, alpha, theta, eps, n_samples)
        for n_bodies, dim, (alpha, theta), eps, n_samples in itertools.product(
            (1, 2, 6), (1, 3), ((2.0, 1.0), (3.0, -0.5)), (0.0, 0.3), (0, 1, 300, 900)
        )
    ],
)
def test_every_ledger_edge_configuration_passes(n_bodies, dim, alpha, theta, eps, n_samples):
    # the edge sweep of tools/report_digest.py (LEDGER_EDGES), which pins these
    # reports only by hash; the oracle test alone would pass if both failed
    spec = make_spec(masses=np.linspace(0.7, 1.9, n_bodies), alpha=alpha, theta=theta, modulation_eps=eps)
    report = run_inequality_ledger(spec, dim, 3, n_samples, 7 * n_bodies + dim)
    assert report.samples == n_samples
    assert report.passed, [check for check in report.checks if not check.passed]


@pytest.mark.parametrize("chunk", [7, 256, 10**6])
def test_ledger_report_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # back-to-back chunks of the coefficient blocks draw one stream
    spec = make_spec(masses=np.linspace(0.7, 1.9, 4), theta=-0.5, modulation_eps=0.3)
    want = _sample_by_sample_ledger(spec, 2, 3, MULTI_CHUNK_SAMPLES, 4)
    monkeypatch.setattr(verify, "LEDGER_CHUNK", chunk)
    assert run_inequality_ledger(spec, 2, 3, MULTI_CHUNK_SAMPLES, seed=4).to_dict() == want


def test_ledger_pairwise_slack_is_relative_to_the_identity_lhs():
    # The tolerance 1e-10 applies to |LHS - RHS| / (1 + sum_{i<j} m_i m_j
    # |x_i - x_j|^2). A scale summing m_i + m_j over all ordered pairs is at
    # least 4/3 of that LHS for masses below 3, and loosens the check by that.
    spec = make_spec()
    for seed in range(3):
        report = run_inequality_ledger(spec, 2, 3, 200, seed)
        rng = np.random.default_rng(seed)  # the pair block draws first
        worst = 0.0
        for _, group_masses, group_positions in _random_body_groups(rng, 200, 2):
            for masses, positions in zip(group_masses, group_positions):
                lhs = sum(
                    masses[i] * masses[q] * float(((positions[i] - positions[q]) ** 2).sum())
                    for i in range(masses.size)
                    for q in range(i + 1, masses.size)
                )
                worst = max(worst, check_pairwise_identity(masses, positions) / (1.0 + lhs))
        assert worst > 0.0
        assert report.checks[0].name == "pairwise_identity"
        assert report.checks[0].worst_slack == pytest.approx(worst, rel=1e-6, abs=0.0)


def test_ledger_checks_each_pair_and_scalar_block_in_one_call_per_body_count(monkeypatch):
    # one stream per block: each field of a block comes from one generator
    # call, one body population serves both pair checks through one pair
    # table per body count, the scalar checks run once, and only the
    # coefficient blocks go chunk by chunk
    calls = {}

    def count(name):
        calls[name] = calls.get(name, 0) + 1

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            count(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def wrapper(*args, **kwargs):
                count(f"rng.{name}")
                return method(*args, **kwargs)

            return wrapper

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(default_rng(seed)))
    for name in ("_random_body_groups", "_random_coefficients", "_pair_table", "_pairwise_table_sides",
                 "_holder_table_sides", "strong_force_margin", "check_modulation_symmetry"):
        counted(verify, name)
    counted(loopspace, "harmonic_energies")
    spec = make_spec(masses=np.linspace(0.7, 1.9, 4), modulation_eps=0.3)
    run_inequality_ledger(spec, 2, 3, MULTI_CHUNK_SAMPLES, seed=2)
    assert calls == {
        "_random_body_groups": 1,
        "rng.integers": 1,  # the body counts of the pair block
        "rng.uniform": 5 + 1 + 2,  # masses per body count, the radii r, then t and |xi|
        "rng.normal": 5 + 1,  # positions per body count, then the directions of xi
        "_pair_table": 5,
        "_pairwise_table_sides": 5,
        "_holder_table_sides": 5 * 6,  # the theta grid holds spec.theta = 1.0 once more
        # 300 general and 101 first-harmonic Wirtinger loops, 40 representation loops (128-loop chunks)
        "_random_coefficients": 3 + 1 + 1,
        "rng.standard_normal": 3 + 1 + 1,
        "harmonic_energies": 3 + 1,
        "strong_force_margin": 1,
        "check_modulation_symmetry": 1,
    }


@pytest.mark.parametrize("length", range(1, 10))
def test_short_axis_sums_and_abs_max_equal_numpy_bit_for_bit(length):
    # fewer than 8 terms are added explicitly, 8 or more by numpy itself; zero rows
    # of either sign must come out +0, as numpy's reductions give them
    rng = np.random.default_rng(length)
    values = rng.normal(size=(40, length, 3)) * rng.uniform(0.0, 1e3, size=(40, length, 3))
    values[:5] = -0.0
    values[5:10] = 0.0
    for axis in (-1, -2, 0):
        want = values.sum(axis=axis)
        assert np.array_equal(verify._sum(values, axis).view(np.int64), want.view(np.int64))
    for axis in ((1, 2), 1, -1):
        want = np.abs(values).max(axis=axis)
        assert np.array_equal(verify._abs_max(values, axis).view(np.int64), want.view(np.int64))


class _Planted(Exception):
    pass


def _raise_in_check(monkeypatch, error):
    def failing(*args):
        raise error

    monkeypatch.setattr(verify, "_holder_table_sides", failing)


def _raise_in_draw(k):
    """A plant whose k-th coefficient draw raises, on the producer thread."""

    def plant(monkeypatch, error):
        original = verify._random_coefficients
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == k:
                raise error
            return original(*args)

        monkeypatch.setattr(verify, "_random_coefficients", failing)

    return plant


@pytest.mark.parametrize(
    "n_samples, plant",
    [
        (300, None),
        (0, None),
        (300, _raise_in_check),
        # at LEDGER_CHUNK = 128, 300 samples draw 2 + 1 Wirtinger chunks, then 1 representation chunk
        (300, _raise_in_draw(1)),
        (300, _raise_in_draw(3)),
        (300, _raise_in_draw(4)),
    ],
    ids=["normal", "zero_samples", "check_raises", "draw_1_raises", "draw_3_raises", "draw_4_raises"],
)
def test_no_thread_outlives_the_ledger(monkeypatch, n_samples, plant):
    spec = make_spec(masses=np.linspace(0.7, 1.9, 4), modulation_eps=0.3)
    before = threading.active_count()
    if plant is None:
        report = run_inequality_ledger(spec, 2, 3, n_samples, seed=5)
        assert report.to_dict() == _sample_by_sample_ledger(spec, 2, 3, n_samples, 5)
    else:
        error = _Planted()
        plant(monkeypatch, error)
        with pytest.raises(_Planted) as excinfo:
            run_inequality_ledger(spec, 2, 3, n_samples, seed=5)
        assert excinfo.value is error
    assert threading.active_count() == before


def test_ledger_draws_run_at_most_one_item_ahead():
    made = []

    def items():
        for index in range(40):
            made.append(index)
            yield index

    consumed = []
    for index in verify._on_producer_thread(items()):
        time.sleep(0.001)  # time for the producer to run further ahead if it could
        assert len(made) <= index + 2
        consumed.append(index)
    assert consumed == list(range(40))


def test_ledger_report_does_not_depend_on_thread_timing():
    # thread switches every microsecond interleave the draws and the checks
    # at many more points than the default 5 ms interval
    spec = make_spec(masses=np.linspace(0.7, 1.9, 3), theta=-0.5, modulation_eps=0.3)
    want = _sample_by_sample_ledger(spec, 2, 3, MULTI_CHUNK_SAMPLES, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_inequality_ledger(spec, 2, 3, MULTI_CHUNK_SAMPLES, seed=6).to_dict()
    finally:
        sys.setswitchinterval(interval)
    assert got == want
