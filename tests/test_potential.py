import warnings

import numpy as np
import pytest

from conftest import TWO_PI, make_spec, per_pair_separations, random_loop
from orbitact.errors import (
    CollisionSample,
    NonPositiveSeparation,
    OutOfWitnessRange,
    SelfPair,
    ShapeMismatch,
)
from orbitact.loopspace import body_pairs, quadrature_grid, sample_trajectory
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
from orbitact.verify import check_modulation_symmetry


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
    # value and slope of the inner branch at r1 and of the tail branch at r2;
    # returns [w, w', w''] of that cubic at r
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
    return [
        c[0] + c[1] * r + c[2] * r**2 + c[3] * r**3,
        c[1] + 2 * c[2] * r + 3 * c[3] * r**2,
        2 * c[2] + 6 * c[3] * r,
    ]


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
    # infinities pass the order checks above, so each is named on its own, and
    # so is an integer beyond the float range, which np.isfinite cannot take
    for name in ("a", "g", "alpha", "theta", "r1", "r2", "period"):
        for value in (np.inf, -np.inf, 10**400, -(10**400)):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                make_spec(**{name: value})
    with pytest.raises(ValueError, match="masses must all be positive and finite"):
        make_spec(masses=np.array([1.0, np.inf]))


@pytest.mark.parametrize("value", [True, False, np.True_, "1.0", None, 1j])
@pytest.mark.parametrize("name", ["a", "g", "alpha", "theta", "r1", "r2", "modulation_eps", "period"])
def test_spec_refuses_bool_and_non_real_constants(name, value):
    # True was stored as a constant of 1; a string or None failed inside numpy
    with pytest.raises(ValueError, match=f"^{name} must be finite and real"):
        make_spec(**{name: value})


@pytest.mark.parametrize("bad", [10**400, 1 + 1j, "a"])
def test_spec_refuses_masses_that_are_not_finite_reals(bad):
    # gave a bare OverflowError, a bare TypeError and numpy's ValueError
    with pytest.raises(ValueError, match="^masses must be"):
        make_spec(masses=[bad, 1.0])


def test_spec_refuses_ragged_masses_by_name():
    # numpy's bare "inhomogeneous shape" ValueError, which did not name the field
    with pytest.raises(ValueError, match="^masses must be finite real numbers"):
        make_spec(masses=[[1.0], [1.0, 2.0]])


def test_spec_accepts_numpy_real_constants():
    spec = make_spec(a=np.float32(1.0), alpha=np.int64(2), period=np.float64(TWO_PI))
    assert spec._blend_cubic == make_spec()._blend_cubic


@pytest.mark.parametrize(
    "overrides",
    [dict(r1=1e-200, r2=1.0), dict(r1=1.0, r2=1e200, theta=1.9), dict(a=1e308, r1=0.1)],
)
def test_blend_that_overflows_a_float_raises_value_error(overrides):
    # finite but extreme constants: r1^-alpha, r2^theta or a product overflows
    # while the blend cubic is bound, which must surface as bad input
    with pytest.raises(ValueError, match="overflows a float"):
        make_spec(**overrides)


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
        assert hermite_cubic_oracle(spec, r)[0] == pytest.approx(want, abs=1e-12)
    # one more parameter set, compared pointwise against the oracle
    other = make_spec(a=2.0, alpha=3.0, g=0.5, theta=0.7, r1=1.0, r2=2.5)
    for r in np.linspace(1.0, 2.5, 13)[:-1]:
        assert pair_potential(other, 0.0, 0, 1, float(r)) == pytest.approx(
            hermite_cubic_oracle(other, float(r))[0], abs=1e-12
        )
    # w' and w'' from the profile against the oracle cubic's derivatives
    for p, grid in ((spec, np.linspace(2.0, 3.0, 9)[:-1]), (other, np.linspace(1.0, 2.5, 13)[:-1])):
        got = _profile(p, grid, 2)
        want = hermite_cubic_oracle(p, grid)
        for order in (1, 2):
            assert got[order] == pytest.approx(want[order], abs=1e-11)


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


@pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, np.float64(1.0), "1", None])
def test_pair_indices_must_be_integers(bad):
    # a bool or fractional index is no body index: every pair entry point
    # raises a ValueError that names the argument, not SelfPair or IndexError
    spec = make_spec(masses=np.array([1.0, 2.0, 3.0]))
    calls = (
        lambda i, j: pair_potential(spec, 0.0, i, j, 1.0),
        lambda i, j: strong_force_witness(spec, i, j),
        lambda i, j: strong_force_margin(spec, i, j, 0.5),
        lambda i, j: check_modulation_symmetry(spec, i, j, 0.0, np.array([0.3, 0.4])),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^i must be an integer"):
            call(bad, 2)
        with pytest.raises(ValueError, match="^j must be an integer"):
            call(0, bad)


def test_pair_indices_accept_numpy_integers():
    spec = make_spec(masses=np.array([1.0, 2.0, 3.0]))
    for i, j in ((np.int64(0), np.int32(2)), (np.intp(2), np.uint8(0))):
        assert pair_potential(spec, 0.3, i, j, 1.5) == pair_potential(spec, 0.3, int(i), int(j), 1.5)
        assert strong_force_margin(spec, i, j, 0.5) == strong_force_margin(spec, int(i), int(j), 0.5)
    with pytest.raises(ShapeMismatch):
        pair_potential(spec, 0.0, np.int64(0), np.int64(3), 1.0)


@pytest.mark.parametrize("blend", ["hermite", BLEND_LINEAR])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_mixed_profile_equals_scalar_calls_bit_for_bit(blend, alpha, dtype):
    # One array across all three branches, with both seams exact: r1 takes
    # the blend and r2 the tail. Each branch runs only on its own entries,
    # and every entry must round as the scalar call on it, in the input dtype.
    spec = make_spec(alpha=alpha, blend=blend)
    r1, r2 = dtype(spec.r1), dtype(spec.r2)
    r = np.array(
        [0.01, np.nextafter(r1, 0), r1, 2.25, 2.5, np.nextafter(r2, 0), r2, 3.5, 1e3, 0.7, 2.9, 4.0],
        dtype=dtype,
    ).reshape(3, 4)
    for order in (0, 1, 2):
        got = _profile(spec, r, order)
        assert len(got) == order + 1
        for d, values in enumerate(got):
            assert values.shape == r.shape
            assert values.dtype == dtype
            expected = [_profile(spec, x, order)[d] for x in r.ravel()]
            assert np.array_equal(values.ravel(), np.array(expected, dtype=dtype))


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


def per_pair_grid_potential(spec, times, positions, order):
    """grid_potential's terms from separations built by one subtraction per pair.

    Everything per pair is explicit. The sums over pairs onto bodies are the
    kernel's former matrix products (mass products for V, the incidence
    matrix for the forces, its sign outer products for the Hessian): BLAS
    may sum a body's pair terms in any order, so a plain loop over the pairs
    need not match them bit for bit.
    """
    n_t, n, k = positions.shape
    iu, ju, incidence = body_pairs(n)
    diff, dist = per_pair_separations(positions)
    mu = time_modulation(spec, times)
    mass_prod = spec.masses[iu] * spec.masses[ju]
    scale = mu[:, None] * mass_prod
    profile = _profile(spec, dist, order)
    out = [mu * (profile[0] @ mass_prod)]
    if order >= 1:
        out.append(incidence @ ((scale * profile[1] / dist)[..., None] * diff))
    if order >= 2:
        unit = diff / dist[..., None]
        blocks = (scale * (profile[2] - profile[1] / dist))[..., None, None] * (
            unit[..., :, None] * unit[..., None, :]
        )
        blocks += (scale * (profile[1] / dist))[..., None, None] * np.eye(k)
        signs = (incidence[:, None, :] * incidence[None, :, :]).reshape(n * n, -1)
        hess = signs @ blocks.reshape(n_t, -1, k * k)
        out.append(hess.reshape(n_t, n, n, k, k).transpose(0, 1, 3, 2, 4))
    return out, float(dist.min(initial=np.inf))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_bodies", [1, 2, 3, 6])
def test_grid_potential_equals_per_pair_reference_bit_for_bit(n_bodies, dim):
    spec = make_spec(masses=np.linspace(0.7, 1.9, n_bodies), modulation_eps=0.3)
    rng = np.random.default_rng(20 * n_bodies + dim)
    for scale in (0.3, 2.0):  # inside r1, and across the blend window and tail
        loop = random_loop(rng, n_bodies=n_bodies, dim=dim, scale=scale)
        grid = quadrature_grid(loop)
        positions = sample_trajectory(loop)
        for order in range(3):
            terms, min_sep = grid_potential(spec, grid.times, positions, order)
            want_terms, want_sep = per_pair_grid_potential(spec, grid.times, positions, order)
            assert min_sep == want_sep
            assert len(terms) == len(want_terms) == order + 1
            assert all(np.array_equal(t, w) for t, w in zip(terms, want_terms))


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


@pytest.mark.parametrize("n_bodies", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("alpha, eps", [(2.0, 0.0), (3.0, 0.3)])
def test_scalar_profile_path_batched_equals_single_calls(n_bodies, alpha, eps):
    # a stacked call must round exactly like a loop of scalar calls, on every
    # branch and for both witness forms (log at alpha = 2, power above)
    masses = np.linspace(0.5, 2.5, n_bodies)
    spec = make_spec(masses=masses, alpha=alpha, modulation_eps=eps)
    rng = np.random.default_rng(10 * n_bodies + int(alpha))
    i, j = 0, n_bodies - 1
    t = rng.uniform(0.0, spec.period, size=(3, 40))
    r = rng.uniform(0.05, 2.0 * spec.r2, size=(3, 40))  # inner, blend and tail branches
    got = pair_potential(spec, t, i, j, r)
    assert got.shape == (3, 40)
    assert np.array_equal(got, [[pair_potential(spec, float(a), i, j, float(b)) for a, b in zip(*row)]
                                for row in zip(t, r)])

    inner = np.exp(rng.uniform(np.log(1e-8 * spec.r1), np.log(0.999 * spec.r1), size=200))
    wit = strong_force_witness(spec, i, j)
    assert np.array_equal(wit.grad_norm_sq(inner), [wit.grad_norm_sq(float(x)) for x in inner])
    margins = strong_force_margin(spec, i, j, inner)
    assert np.array_equal(margins, [strong_force_margin(spec, i, j, float(x)) for x in inner])
    # an extreme spread: every branch is evaluated only on its own interval,
    # so a far tail separation does not overflow the blend or warn
    wide = np.array([1e-3, 2.5, 1e120])
    assert np.array_equal(pair_potential(spec, 0.3, i, j, wide),
                          [pair_potential(spec, 0.3, i, j, float(x)) for x in wide])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _profile(spec, wide, 2)
    # one sample gives a float, as before batching
    assert type(pair_potential(spec, 0.3, i, j, 1.0)) is float
    assert type(strong_force_margin(spec, i, j, 0.5)) is float
    assert type(wit.grad_norm_sq(0.5)) is float


def test_batched_scalar_path_checks_every_entry():
    spec = make_spec()
    with pytest.raises(NonPositiveSeparation):
        pair_potential(spec, 0.0, 0, 1, np.array([1.0, 0.0]))
    with pytest.raises(OutOfWitnessRange):
        strong_force_margin(spec, 0, 1, np.array([0.5, 2.0]))
    with pytest.raises(OutOfWitnessRange):
        strong_force_witness(spec, 0, 1).grad_norm_sq(np.array([0.5, 3.0]))
