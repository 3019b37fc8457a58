import json

import numpy as np
import pytest

from conftest import TWO_PI, balance_radius, make_spec, pair_circle, random_loop
from orbitact.errors import ShapeMismatch, SingleBody, ThetaOutOfRange
from orbitact.loopspace import LoopConfiguration, kinetic_energy
from orbitact.action import action_value
from orbitact.potential import BLEND_LINEAR
from orbitact.verify import (
    _ledger_check,
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
