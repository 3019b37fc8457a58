import numpy as np
import pytest

from conftest import TWO_PI, balance_radius, make_spec, pair_circle, random_loop
from orbitact.action import action, action_hessian, action_value
from orbitact.errors import CollisionSample, ShapeMismatch
from orbitact.loopspace import (
    LoopConfiguration,
    default_grid_size,
    pair_separations,
    quadrature_grid,
    sample_trajectory,
)
from orbitact.potential import grid_potential


def fd_gradient_longdouble(spec, loop, h=1e-6):
    """Central differences of the value in extended precision, all components."""
    base = loop.coefficients.astype(np.longdouble)
    flat = base.reshape(-1)
    out = np.empty(flat.size, dtype=np.longdouble)
    for idx in range(flat.size):
        for sign in (+1, -1):
            bumped = flat.copy()
            bumped[idx] += sign * np.longdouble(h)
            probe = LoopConfiguration(
                loop.n_bodies, loop.dim, loop.period, bumped.reshape(base.shape)
            )
            value, _, _ = action_value(spec, probe)
            if sign > 0:
                plus = value
            else:
                minus = value
        out[idx] = (plus - minus) / (2 * np.longdouble(h))
    return out


def test_action_circle_closed_form():
    # antipodal unit-mass circle of radius 1/2 (separation 1, inner branch):
    # kinetic T R^2 = pi/2 and -int V = T a / (2R)^2 = 2 pi, total 5 pi / 2
    spec = make_spec()
    ev = action(spec, pair_circle(0.5))
    assert ev.value == pytest.approx(5 * np.pi / 2, abs=1e-12)
    assert ev.kinetic == pytest.approx(np.pi / 2, abs=1e-12)
    assert ev.potential_integral == pytest.approx(-2 * np.pi, abs=1e-12)
    assert ev.min_separation == pytest.approx(1.0, abs=1e-13)
    assert ev.value == ev.kinetic - ev.potential_integral


def test_single_body_has_only_kinetic_terms():
    # one body has no pairs: every potential term vanishes at every order,
    # and the action is its kinetic part 0.5 sum D c^2 with D = 0.5 T m omega^2
    spec = make_spec(masses=np.array([2.0]))
    loop = random_loop(np.random.default_rng(71), n_bodies=1, harmonics=3)
    grid = quadrature_grid(loop)
    positions = sample_trajectory(loop)
    n_t = positions.shape[0]
    shapes = [(n_t,), (n_t, 1, 2), (n_t, 1, 2, 1, 2)]
    for order in range(3):
        terms, min_sep = grid_potential(spec, grid.times, positions, order)
        assert min_sep == np.inf
        assert [term.shape for term in terms] == shapes[: order + 1]
        assert not any(term.any() for term in terms)
    omega_sq = loop.angular_frequencies() ** 2
    kin_diag = np.broadcast_to(
        0.5 * loop.period * 2.0 * omega_sq[None, :, None, None], loop.coefficients.shape
    ).reshape(-1)
    ev = action(spec, loop)
    assert ev.value == ev.kinetic
    assert ev.potential_integral == 0.0
    assert ev.min_separation == np.inf
    flat = loop.coefficients.reshape(-1)
    assert ev.kinetic == pytest.approx(0.5 * (kin_diag * flat**2).sum(), rel=1e-14)
    np.testing.assert_allclose(ev.gradient, kin_diag * flat, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(action_hessian(spec, loop), np.diag(kin_diag), rtol=1e-14, atol=0.0)


def test_action_value_fast_path_agrees():
    spec = make_spec()
    rng = np.random.default_rng(101)
    loop = random_loop(rng, harmonics=4)
    ev = action(spec, loop)
    value, kinetic, min_sep = action_value(spec, loop)
    assert value == ev.value
    assert kinetic == ev.kinetic
    assert min_sep == ev.min_separation
    assert np.array_equal(action(spec, loop).gradient, ev.gradient)


def test_gradient_matches_extended_precision_differences():
    spec3 = make_spec(masses=np.array([1.0, 2.0, 0.5]))
    rng = np.random.default_rng(7)
    for scale in (0.4, 1.6):  # inner-only and blend/tail-crossing loops
        loop = random_loop(rng, n_bodies=3, dim=2, harmonics=3, scale=scale)
        grad = action(spec3, loop).gradient
        fd = fd_gradient_longdouble(spec3, loop)
        err = np.abs(fd - grad.astype(np.longdouble))
        denom = np.maximum(1.0, np.abs(grad))
        # the h^2 truncation of the differences dominates at ~1e-9 here; a
        # wrong gradient term would show up many orders above this line
        assert float((err / denom).max()) < 1e-8


def test_gradient_vanishes_on_balanced_circles():
    spec = make_spec()
    for winding in (1, 3):
        radius = balance_radius(spec, winding)
        loop = pair_circle(radius, winding=winding, harmonics=4)
        grad = action(spec, loop).gradient
        assert np.abs(grad).max() < 1e-11


def test_balanced_circle_actions_are_linear_in_winding():
    # for the quadratic inner branch the circle family gives value 2 pi w
    spec = make_spec()
    for winding in (1, 3, 5):
        radius = balance_radius(spec, winding)
        value, _, _ = action_value(spec, pair_circle(radius, winding=winding, harmonics=3))
        assert value == pytest.approx(TWO_PI * winding, rel=1e-12)


def test_collision_family_frozen_values():
    # circles of separation 2^-j: value 2 pi (2^-2j-2 + 2^2j), evaluated
    # exactly because the separation is constant along the loop
    spec = make_spec()
    frozen = {1: 25.525440310417068, 2: 100.62913968529806, 3: 402.1484033520997}
    for j, want in frozen.items():
        value, _, _ = action_value(spec, pair_circle(2.0 ** -(j + 1)))
        assert value == pytest.approx(want, rel=1e-14)


def test_action_dtype_follows_coefficients():
    spec = make_spec()
    loop64 = pair_circle(0.5)
    loopld = LoopConfiguration(2, 2, TWO_PI, loop64.coefficients.astype(np.longdouble))
    value, _, _ = action_value(spec, loopld)
    assert isinstance(value, np.longdouble)


def test_collision_sample_raises():
    spec = make_spec()
    coeffs = np.zeros((2, 1, 2, 2))
    coeffs[:, 0, 0, 0] = 1.0  # identical loops -> zero separation everywhere
    with pytest.raises(CollisionSample):
        action(spec, LoopConfiguration(2, 2, TWO_PI, coeffs))


def test_incompatible_spec_and_loop():
    spec = make_spec()
    with pytest.raises(ShapeMismatch):
        action(spec, LoopConfiguration(3, 2, TWO_PI, np.ones((3, 1, 2, 2))))
    with pytest.raises(ShapeMismatch):
        action(spec, LoopConfiguration(2, 2, 1.0, np.ones((2, 1, 2, 2))))


def test_quadrature_refinement_converges():
    spec = make_spec()
    rng = np.random.default_rng(301)
    loop = random_loop(rng, harmonics=4, scale=0.5)  # smooth inner-branch loop
    reference, _, _ = action_value(spec, loop, n_t=512)
    at_floor, _, _ = action_value(spec, loop, n_t=17)
    at_default, _, _ = action_value(spec, loop, n_t=41)
    # node count 41 already sits at the trapezoid rule's spectral floor
    assert abs(at_default - reference) < 1e-10
    assert abs(at_default - reference) < abs(at_floor - reference)
    # constant-separation loops are integrated exactly at any node count
    circle = pair_circle(0.5)
    v_coarse, _, _ = action_value(spec, circle, n_t=13)
    v_fine, _, _ = action_value(spec, circle, n_t=512)
    assert v_coarse == pytest.approx(v_fine, abs=1e-13)


def test_hessian_symmetric_and_matches_gradient_differences():
    spec = make_spec(masses=np.array([1.0, 2.0]))
    rng = np.random.default_rng(43)
    loop = random_loop(rng, n_bodies=2, harmonics=3, scale=0.7)
    hess = action_hessian(spec, loop)
    n = loop.coefficients.size
    assert hess.shape == (n, n)
    assert np.abs(hess - hess.T).max() < 1e-11 * max(1.0, np.abs(hess).max())

    h = 1e-6
    flat = loop.coefficients.reshape(-1)
    fd = np.empty((n, n))
    for idx in range(n):
        bumped = flat.copy()
        bumped[idx] += h
        dipped = flat.copy()
        dipped[idx] -= h
        gp = action(spec, LoopConfiguration(2, 2, TWO_PI, bumped.reshape(loop.coefficients.shape))).gradient
        gm = action(spec, LoopConfiguration(2, 2, TWO_PI, dipped.reshape(loop.coefficients.shape))).gradient
        fd[idx] = (gp - gm) / (2 * h)
    scale = max(1.0, np.abs(hess).max())
    assert np.abs(fd - hess).max() / scale < 1e-7


def test_hessian_positive_on_kinetic_dominated_directions():
    # far from other bodies the kinetic diagonal dominates: at a balanced
    # circle the Hessian must be positive semidefinite up to tiny negatives
    spec = make_spec()
    loop = pair_circle(balance_radius(spec, 1), harmonics=2)
    eigvals = np.linalg.eigvalsh(action_hessian(spec, loop))
    assert eigvals.min() > -1e-9 * max(1.0, eigvals.max())


def einsum_hessian_oracle(spec, loop):
    """The Hessian as one 8-index einsum over a freshly built (M, 2, n_t) basis."""
    n_t = default_grid_size(loop.harmonics)
    times = np.arange(n_t) * (loop.period / n_t)
    angles = np.outer(loop.angular_frequencies(), times)
    basis = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    (_, _, node_hess), _ = grid_potential(spec, times, sample_trajectory(loop, n_t), 2)
    pot = (loop.period / n_t) * np.einsum("mcj,jidpe,nfj->imcdpnfe", basis, node_hess, basis)
    n = loop.coefficients.size
    omega_sq = loop.angular_frequencies() ** 2
    kin = 0.5 * loop.period * spec.masses[:, None, None, None] * omega_sq[None, :, None, None]
    kin_diag = (kin * np.ones((1, 1, 2, loop.dim))).reshape(-1)
    return np.diag(kin_diag) - pot.reshape(n, n)


def test_hessian_matches_einsum_contraction():
    spec = make_spec(masses=np.array([1.0, 2.0, 0.5]), modulation_eps=0.2)
    rng = np.random.default_rng(59)
    inner = random_loop(rng, n_bodies=3, dim=2, harmonics=4, scale=0.4)
    crossing = random_loop(rng, n_bodies=3, dim=2, harmonics=4, scale=1.6)
    for loop, in_window in ((inner, False), (crossing, True)):
        _, dist = pair_separations(sample_trajectory(loop))
        assert dist.max() < spec.r1 or in_window
        assert bool(((dist >= spec.r1) & (dist < spec.r2)).any()) == in_window
        oracle = einsum_hessian_oracle(spec, loop)
        hess = action_hessian(spec, loop)
        assert np.abs(hess - oracle).max() <= 1e-12 * np.abs(oracle).max()
