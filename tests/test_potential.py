import numpy as np
import pytest

from conftest import TWO_PI, make_spec
from orbitact.errors import (
    CollisionSample,
    NonPositiveSeparation,
    OutOfWitnessRange,
    SelfPair,
    ShapeMismatch,
)
from orbitact.potential import (
    BLEND_LINEAR,
    PotentialSpec,
    _profile,
    grid_potential,
    pair_potential,
    strong_force_margin,
    strong_force_witness,
    time_modulation,
)


def one_node_potential(spec, t, positions):
    """V(t, x) = sum_{i<j} V_ij(t, x_i - x_j) for one configuration (N, k)."""
    (values,), _ = grid_potential(spec, np.array([t]), positions[None])
    return float(values[0])


def ordered_pair_force(spec, t, i, j, xi):
    """Gradient of V_ij in the separation xi = x_i - x_j: mu(t) m_i m_j w'(|xi|) xi / |xi|."""
    r = float(np.linalg.norm(xi))
    wp = _profile(spec, r, 1)[1]
    return float(time_modulation(spec, t)) * spec.masses[i] * spec.masses[j] * wp * (xi / r)


def hermite_cubic_oracle(spec, r):
    # independent construction: solve the 4x4 system for the cubic matching
    # value and slope of the inner branch at r1 and of the tail branch at r2
    r1, r2 = spec.r1, spec.r2
    v0 = -spec.a * r1 ** (-spec.alpha)
    d0 = spec.alpha * spec.a * r1 ** (-spec.alpha - 1)
    v1 = spec.g * r2**spec.theta
    d1 = spec.g * spec.theta * r2 ** (spec.theta - 1)
    system = np.array(
        [
            [1, r1, r1**2, r1**3],
            [0, 1, 2 * r1, 3 * r1**2],
            [1, r2, r2**2, r2**3],
            [0, 1, 2 * r2, 3 * r2**2],
        ],
        dtype=float,
    )
    c = np.linalg.solve(system, np.array([v0, d0, v1, d1]))
    return c[0] + c[1] * r + c[2] * r**2 + c[3] * r**3


def test_spec_validation_names_the_hypothesis():
    with pytest.raises(ValueError, match="alpha >= 2"):
        make_spec(alpha=1.5)
    with pytest.raises(ValueError, match="theta < 2"):
        make_spec(theta=2.0)
    with pytest.raises(ValueError, match="positive"):
        make_spec(a=0.0)
    with pytest.raises(ValueError, match="positive"):
        make_spec(g=-0.1)
    with pytest.raises(ValueError, match="masses"):
        make_spec(masses=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        make_spec(r1=3.0, r2=2.0)
    with pytest.raises(ValueError):
        make_spec(modulation_eps=1.0)
    with pytest.raises(ValueError):
        make_spec(blend="cubic-spline")


def test_inner_branch_value_and_force():
    spec = make_spec()
    # r = 0.5 on the inner branch: w = -a r^-2 = -4
    assert pair_potential(spec, 0.0, 0, 1, 0.5) == pytest.approx(-4.0, abs=1e-14)
    # force on body 0 at separation vector (0.5, 0): w'(0.5) = 2 * 0.5^-3 = 16
    positions = np.array([[[0.5, 0.0], [0.0, 0.0]]])
    (_, forces), _ = grid_potential(spec, np.array([0.0]), positions, 1)
    assert forces[0, 0] == pytest.approx([16.0, 0.0], abs=1e-12)


def test_tail_branch_value():
    spec = make_spec()
    assert pair_potential(spec, 0.0, 0, 1, 4.0) == pytest.approx(0.04, abs=1e-15)
    neg = make_spec(theta=-1.0)
    assert pair_potential(neg, 0.0, 0, 1, 4.0) == pytest.approx(0.0025, abs=1e-15)


def test_blend_window_matches_cubic_solve_oracle():
    spec = make_spec()
    for r, want in ((2.25, -0.1715625), (2.5, -0.08), (2.75, -0.0034375)):
        assert pair_potential(spec, 0.0, 0, 1, r) == pytest.approx(want, abs=1e-12)
        assert hermite_cubic_oracle(spec, r) == pytest.approx(want, abs=1e-12)
    # one more parameter set, compared pointwise against the oracle
    other = make_spec(a=2.0, alpha=3.0, g=0.5, theta=0.7, r1=1.0, r2=2.5)
    for r in np.linspace(1.0, 2.5, 13)[:-1]:
        assert pair_potential(other, 0.0, 0, 1, float(r)) == pytest.approx(
            hermite_cubic_oracle(other, float(r)), abs=1e-12
        )


def test_blend_is_c1_at_both_seams():
    spec = make_spec()
    h = 1e-7
    for seam in (spec.r1, spec.r2):
        left = pair_potential(spec, 0.0, 0, 1, seam - h)
        right = pair_potential(spec, 0.0, 0, 1, seam + h)
        assert abs(right - left) < 1e-6  # value continuous
        dl = (pair_potential(spec, 0.0, 0, 1, seam - h) - pair_potential(spec, 0.0, 0, 1, seam - 3 * h)) / (2 * h)
        dr = (pair_potential(spec, 0.0, 0, 1, seam + 3 * h) - pair_potential(spec, 0.0, 0, 1, seam + h)) / (2 * h)
        assert abs(dr - dl) < 1e-5  # slope continuous


def test_linear_blend_is_not_c1():
    spec = make_spec(blend=BLEND_LINEAR)
    h = 1e-7
    dl = (pair_potential(spec, 0.0, 0, 1, spec.r1 - h) - pair_potential(spec, 0.0, 0, 1, spec.r1 - 3 * h)) / (2 * h)
    dr = (pair_potential(spec, 0.0, 0, 1, spec.r1 + 3 * h) - pair_potential(spec, 0.0, 0, 1, spec.r1 + h)) / (2 * h)
    # inner slope 0.25 vs chord slope (0.03 + 0.25) / 1 = 0.28
    assert abs(dr - dl) > 0.02


def test_pair_checks():
    spec = make_spec()
    with pytest.raises(SelfPair):
        pair_potential(spec, 0.0, 1, 1, 1.0)
    with pytest.raises(NonPositiveSeparation):
        pair_potential(spec, 0.0, 0, 1, 0.0)


def test_time_modulation_even_and_half_periodic():
    spec = make_spec(modulation_eps=0.3)
    ts = np.linspace(0.0, TWO_PI, 17)
    for t in ts:
        mu = time_modulation(spec, t)
        assert 0.7 - 1e-12 <= mu <= 1.3 + 1e-12
        assert time_modulation(spec, t + 0.5 * spec.period) == pytest.approx(mu, abs=1e-12)
        assert time_modulation(spec, -t) == pytest.approx(mu, abs=1e-12)
    assert time_modulation(make_spec(), 0.42) == 1.0


def test_total_potential_three_body_frozen():
    # masses (1, 2, 3) at (0,0), (1,0), (0,1.5): all pairs on the inner
    # branch, hand value 2(-1) + 3(-1/2.25) + 6(-1/3.25) = -5.179487179487179
    spec = make_spec(masses=np.array([1.0, 2.0, 3.0]))
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]])
    assert one_node_potential(spec, 0.0, pos) == pytest.approx(-5.179487179487179, abs=1e-12)


def test_total_potential_shape_check():
    spec = make_spec()
    with pytest.raises(ShapeMismatch):
        grid_potential(spec, np.array([0.0]), np.zeros((1, 3, 2)))


def test_grid_potential_matches_pairwise_sum():
    spec = make_spec(masses=np.array([1.0, 2.0, 0.5]), modulation_eps=0.2)
    rng = np.random.default_rng(13)
    times = np.array([0.0, 1.0, 2.5])
    positions = rng.normal(scale=1.2, size=(3, 3, 2))
    (values, forces), min_sep = grid_potential(spec, times, positions, 1)
    for j, t in enumerate(times):
        hand = sum(
            pair_potential(spec, t, i, q, float(np.linalg.norm(positions[j, i] - positions[j, q])))
            for i in range(3)
            for q in range(i + 1, 3)
        )
        assert values[j] == pytest.approx(hand, abs=1e-12)
    seps = [
        np.linalg.norm(positions[j, i] - positions[j, q])
        for j in range(3)
        for i in range(3)
        for q in range(i + 1, 3)
    ]
    assert min_sep == pytest.approx(min(seps), abs=1e-12)


def test_grid_forces_match_ordered_pair_loop():
    spec = make_spec(masses=np.array([1.0, 2.0, 0.5, 3.0]), modulation_eps=0.3)
    rng = np.random.default_rng(61)
    times = np.array([0.0, 0.4, 1.9, 3.3, 5.0])
    positions = rng.normal(scale=1.6, size=(5, 4, 2))
    (_, forces), _ = grid_potential(spec, times, positions, 1)
    want = np.zeros_like(positions)
    seps = []
    for j, t in enumerate(times):
        for i in range(4):
            for q in range(4):
                if q != i:
                    xi = positions[j, i] - positions[j, q]
                    seps.append(np.linalg.norm(xi))
                    want[j, i] += ordered_pair_force(spec, t, i, q, xi)
    seps = np.asarray(seps)
    # every branch of the profile is exercised
    assert (seps < spec.r1).any() and (seps >= spec.r2).any()
    assert ((seps >= spec.r1) & (seps < spec.r2)).any()
    assert np.abs(forces - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_grid_forces_match_finite_differences():
    spec = make_spec(masses=np.array([1.0, 2.0, 0.5]), modulation_eps=0.1)
    rng = np.random.default_rng(17)
    positions = rng.normal(scale=1.3, size=(1, 3, 2))
    t = np.array([0.7])
    (_, forces), _ = grid_potential(spec, t, positions, 1)
    h = 1e-6
    for i in range(3):
        for d in range(2):
            bumped = positions.copy()
            bumped[0, i, d] += h
            dipped = positions.copy()
            dipped[0, i, d] -= h
            fd = (
                one_node_potential(spec, 0.7, bumped[0]) - one_node_potential(spec, 0.7, dipped[0])
            ) / (2 * h)
            assert forces[0, i, d] == pytest.approx(fd, abs=1e-7)


def test_grid_potential_collision_raises():
    spec = make_spec()
    positions = np.zeros((1, 2, 2))  # both bodies at the origin
    with pytest.raises(CollisionSample):
        grid_potential(spec, np.array([0.0]), positions)


def test_grid_hessian_matches_force_differences():
    spec = make_spec(masses=np.array([1.0, 2.0, 0.5]), modulation_eps=0.1)
    rng = np.random.default_rng(29)
    positions = rng.normal(scale=1.3, size=(2, 3, 2))
    times = np.array([0.0, 0.9])
    (_, _, hess), _ = grid_potential(spec, times, positions, 2)
    assert hess.shape == (2, 3, 2, 3, 2)
    h = 1e-6
    for j in range(2):
        for q in range(3):
            for e in range(2):
                bumped = positions.copy()
                bumped[j, q, e] += h
                dipped = positions.copy()
                dipped[j, q, e] -= h
                (_, fp), _ = grid_potential(spec, times, bumped, 1)
                (_, fm), _ = grid_potential(spec, times, dipped, 1)
                fd = (fp[j] - fm[j]) / (2 * h)
                assert np.abs(hess[j, :, :, q, e] - fd).max() < 1e-5
    # symmetry of each time slice as a (N k, N k) matrix
    flat = hess.reshape(2, 6, 6)
    assert np.abs(flat - np.transpose(flat, (0, 2, 1))).max() < 1e-12


def test_witness_log_form_for_quadratic_inner():
    spec = make_spec()
    wit = strong_force_witness(spec, 0, 1)
    assert wit.form == "log"
    # |U'(r)|^2 must equal a m_i m_j r^-2 exactly on the inner branch
    for r in (1e-6, 0.01, 0.5, 1.9):
        assert wit.grad_norm_sq(r) == pytest.approx(spec.a / r**2, rel=1e-14)
        assert strong_force_margin(spec, 0, 1, r) == pytest.approx(0.0, abs=1e-12 / r**2)
    assert wit.value(0.5) < wit.value(1.0)


def test_witness_power_form_for_steeper_inner():
    spec = make_spec(alpha=3.0, modulation_eps=0.25)
    wit = strong_force_witness(spec, 0, 1)
    assert wit.form == "power"
    assert wit.beta == pytest.approx(0.5)
    for r in (1e-4, 0.2, 1.5):
        want = (1.0 - spec.modulation_eps) * spec.a * r**-spec.alpha
        assert wit.grad_norm_sq(r) == pytest.approx(want, rel=1e-13)
    # witness still diverges to -inf near collision
    assert wit.value(1e-12) < -1e5


def test_witness_domain_checked():
    spec = make_spec()
    wit = strong_force_witness(spec, 0, 1)
    with pytest.raises(OutOfWitnessRange):
        wit.value(2.0)
    with pytest.raises(OutOfWitnessRange):
        wit.grad_norm_sq(2.5)
    with pytest.raises(OutOfWitnessRange):
        strong_force_margin(spec, 0, 1, 2.0)


def test_masses_are_read_only_and_spec_frozen():
    spec = make_spec()
    with pytest.raises(ValueError):
        spec.masses[0] = 5.0
    with pytest.raises(AttributeError):
        spec.a = 2.0
