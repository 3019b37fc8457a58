import tracemalloc

import numpy as np
import pytest

from conftest import TWO_PI, balance_radius, make_spec, pair_circle, random_loop
from orbitact.action import (
    ACTION_PAIR_NODES,
    _Evaluator,
    _kinetic_diagonal,
    action,
    action_hessian,
    action_value,
)
from orbitact.errors import CollisionSample, ShapeMismatch
from orbitact.loopspace import (
    LoopBatch,
    LoopConfiguration,
    default_grid_size,
    pair_separations,
    quadrature_grid,
    sample_trajectory,
)
from orbitact.potential import grid_potential
from orbitact.solver import circular_seed


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


def test_node_count_must_be_an_integer():
    # np.arange(41.5) makes 42 nodes spaced T/41.5, which is no periodic
    # grid: the action came out 7.8830882296 against 7.8830882297 at 41.
    spec = make_spec()
    loop = circular_seed(spec, 2, 8, 1, 0, base_seed=0)
    for bad in (41.5, 41.0, True, np.float64(41.0)):
        with pytest.raises(ValueError, match="n_t must be an integer"):
            action(spec, loop, n_t=bad)
        with pytest.raises(ValueError, match="n_t must be an integer"):
            sample_trajectory(loop, bad)
    want = action(spec, loop, n_t=41)
    got = action(spec, loop, n_t=np.int64(41))
    assert got.value == want.value
    assert np.array_equal(got.gradient, want.gradient)


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


def row_product_hessian(spec, loop):
    """The Hessian from the row-product formula, written out independently as the oracle.

    A (4M^2, n_t) matrix of basis row products times the node Hessians of
    a plain ``grid_potential`` call, scaled by T/n_t out of place, taken
    through an 8-axis transpose into flat coefficient order, negated, plus
    the kinetic diagonal.
    """
    grid = quadrature_grid(loop)
    n_t = grid.times.shape[0]
    n_bodies, harmonics, _, dim = loop.coefficients.shape
    n_pos, size = n_bodies * dim, loop.coefficients.size
    (_, _, node_hess), _ = grid_potential(spec, grid.times, sample_trajectory(loop), 2)
    row_products = (grid.basis[:, None, :] * grid.basis[None, :, :]).reshape(-1, n_t)
    pot_block = (loop.period / n_t) * (row_products @ node_hess.reshape(n_t, n_pos * n_pos))
    pot_block = pot_block.reshape(
        harmonics, 2, harmonics, 2, n_bodies, dim, n_bodies, dim
    ).transpose(4, 0, 1, 5, 6, 2, 3, 7)
    hess = -pot_block.reshape(size, size)
    hess[np.diag_indices(size)] += _kinetic_diagonal(spec, grid, loop).reshape(-1)
    return hess


@pytest.mark.parametrize(
    "n_bodies, dim, dtype",
    [(1, 2, float), (2, 1, float), (3, 3, float), (6, 2, float), (3, 2, np.longdouble)],
)
def test_hessian_columns_equal_hessp_of_unit_vectors_bit_for_bit(n_bodies, dim, dtype):
    spec = make_spec(masses=np.linspace(0.7, 1.9, n_bodies), modulation_eps=0.3)
    rng = np.random.default_rng(7 * n_bodies + dim)
    for scale in (0.3, 2.0):
        coefficients = random_loop(rng, n_bodies=n_bodies, dim=dim, scale=scale).coefficients
        loop = LoopConfiguration(n_bodies, dim, TWO_PI, coefficients.astype(dtype))
        hess = action_hessian(spec, loop)
        product = _Evaluator(spec, loop).hessp(loop.flat())
        assert hess.dtype == dtype
        for j, unit in enumerate(np.eye(loop.coefficients.size, dtype=dtype)):
            column = product(unit)
            assert column.dtype == dtype
            assert np.array_equal(hess[:, j], column)


def test_hessian_peak_memory_stays_near_its_own_bytes():
    # Forming the Hessian by its basis row products took a (4M^2, n_t) matrix,
    # 9.5 times the Hessian's bytes here; by columns it takes 1.15.
    spec = make_spec(masses=np.array([1.0, 2.0, 0.5]))
    loop = random_loop(np.random.default_rng(67), n_bodies=3, dim=2, harmonics=64, scale=0.4)
    tracemalloc.start()
    try:
        hess = action_hessian(spec, loop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hess.shape == (loop.coefficients.size,) * 2
    assert peak < 3 * hess.nbytes


def test_mixed_branch_evaluation_peak_memory():
    # Six N = 6, M = 24 loops whose pair distances span the inner branch, the
    # blend window and the tail: a line-search batch of ring6's shape. Each
    # profile branch runs only on its own separations and the order-1
    # temporaries are reused in place; a kernel that clamps every separation
    # for each branch and merges them with np.where traces 1.07 MB here.
    spec = make_spec(masses=np.linspace(0.7, 1.9, 6), modulation_eps=0.3)
    rng = np.random.default_rng(5)
    loops = [random_loop(rng, n_bodies=6, dim=2, harmonics=24) for _ in range(6)]
    widest = [pair_separations(sample_trajectory(loop))[1].max() for loop in loops]
    xs = np.stack([(loop.coefficients * (4.5 / w)).ravel() for loop, w in zip(loops, widest)])
    evaluator = _Evaluator(spec, loops[0])
    _, dist = pair_separations(sample_trajectory(LoopBatch(TWO_PI, xs.reshape(6, *evaluator.shape))))
    assert (dist < spec.r1).any() and ((spec.r1 <= dist) & (dist < spec.r2)).any() and (dist >= spec.r2).any()
    evaluator.evaluate(xs, 1)  # warm: caches and the grid are built
    tracemalloc.start()
    try:
        evaluator.evaluate(xs, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6


@pytest.mark.parametrize("n_bodies", [1, 2, 3, 6])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hessp_matches_dense_hessian_product(n_bodies, dim):
    # One random loop, scaled so that its largest pair distance lies inside
    # r1, and then in the middle of the blend window [r1, r2).
    spec = make_spec(masses=np.linspace(0.7, 1.9, n_bodies), modulation_eps=0.3)
    rng = np.random.default_rng(11 * n_bodies + dim)
    base = random_loop(rng, n_bodies=n_bodies, dim=dim)
    _, dist = pair_separations(sample_trajectory(base))
    widest = dist.max(initial=1.0)
    for target in (0.9 * spec.r1, 0.5 * (spec.r1 + spec.r2)):
        loop = LoopConfiguration(n_bodies, dim, TWO_PI, base.coefficients * (target / widest))
        product = _Evaluator(spec, loop).hessp(loop.flat())
        v = rng.standard_normal(loop.coefficients.size)
        want = row_product_hessian(spec, loop) @ v
        assert np.abs(product(v) - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(product.from_rows(product.to_rows(v)), v)


def test_bound_evaluator_matches_fresh_action_bit_for_bit():
    spec3 = make_spec(masses=np.array([1.0, 2.0, 0.5]))
    rng = np.random.default_rng(53)
    loop0 = random_loop(rng, n_bodies=3, dim=2, harmonics=3, scale=0.4)
    crossing = random_loop(rng, n_bodies=3, dim=2, harmonics=3, scale=1.6)
    _, dist = pair_separations(sample_trajectory(crossing))
    assert dist.min() < spec3.r1 < dist.max()  # passes through the blend window
    direction = rng.standard_normal(loop0.coefficients.size)
    xs = [loop0.flat(), crossing.flat()] + [loop0.flat() + t * direction for t in (1e-3, 0.05)]
    evaluator = _Evaluator(spec3, loop0)
    for x in xs:
        got = evaluator.action(x)
        loop = loop0.with_flat(x)
        want = action(spec3, loop)
        assert got.value == want.value
        assert np.array_equal(got.gradient, want.gradient)
        assert got.kinetic == want.kinetic
        assert got.min_separation == want.min_separation
        fresh = _Evaluator(spec3, loop).hessp(x)
        assert np.array_equal(evaluator.hessp(x)(direction), fresh(direction))


def test_bound_evaluator_rejects_collisions_and_bad_vectors():
    spec3 = make_spec(masses=np.array([1.0, 2.0, 0.5]))
    loop0 = random_loop(np.random.default_rng(59), n_bodies=3, dim=2, harmonics=3, scale=0.4)
    evaluator = _Evaluator(spec3, loop0)
    colliding = loop0.coefficients.copy()
    colliding[1] = colliding[0]  # bodies 0 and 1 coincide at every node
    with pytest.raises(CollisionSample):
        evaluator.action(colliding.reshape(-1))
    for bad in (np.nan, np.inf):
        x = loop0.flat()
        x[4] = bad
        with pytest.raises(ShapeMismatch):
            evaluator.action(x)
    with pytest.raises(ShapeMismatch):
        evaluator.action(loop0.flat()[:-1])
    with pytest.raises(ShapeMismatch):
        evaluator.hessp(x)
    with pytest.raises(CollisionSample):
        evaluator.hessp(colliding.reshape(-1))


def assert_same_evaluation(got, want):
    assert got.value == want.value
    assert np.array_equal(got.gradient, want.gradient)
    assert got.kinetic == want.kinetic
    assert got.potential_integral == want.potential_integral
    assert got.min_separation == want.min_separation


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_bodies", [1, 2, 3, 6])
def test_batched_evaluation_equals_single_calls_bit_for_bit(n_bodies, dim, eps):
    # Rows 0 and 1: one loop inside r1 and one whose pair distances cross r1,
    # the start of the blend window; the other ten are random loops from well
    # inside r1 to far out in the tail.
    spec = make_spec(masses=np.linspace(0.7, 1.9, n_bodies), modulation_eps=eps)
    rng = np.random.default_rng(100 * n_bodies + 10 * dim + int(10 * eps))
    base = random_loop(rng, n_bodies=n_bodies, dim=dim)
    _, dist = pair_separations(sample_trajectory(base))
    widest, closest = (dist.max(), dist.min()) if n_bodies > 1 else (1.0, 1.0)
    inner = LoopConfiguration(n_bodies, dim, TWO_PI, base.coefficients * (0.9 * spec.r1 / widest))
    crossing = LoopConfiguration(
        n_bodies, dim, TWO_PI, base.coefficients * (spec.r1 / np.sqrt(widest * closest))
    )
    if n_bodies > 1:
        _, dist = pair_separations(sample_trajectory(crossing))
        assert dist.min() < spec.r1 < dist.max()
    others = [random_loop(rng, n_bodies=n_bodies, dim=dim, scale=s) for s in np.geomspace(0.1, 10.0, 10)]
    xs = np.stack([loop.flat() for loop in [inner, crossing] + others])
    evaluator = _Evaluator(spec, inner)
    singles = [evaluator.action(x) for x in xs]
    values = [evaluator.evaluate(x, 0) for x in xs]
    times = evaluator.grid.times
    positions = sample_trajectory(LoopBatch(TWO_PI, xs.reshape(-1, *inner.coefficients.shape)))
    order = list(range(12))
    for rows in ([0], [1], [0, 1], [1, 0], order, order[::-1], order[6:] + order[:6]):
        for row, got in zip(rows, evaluator.actions(xs[rows])):
            assert_same_evaluation(got, singles[row])
        (got_values,), kinetics, potentials, min_seps = evaluator.evaluate(xs[rows], 0)
        for b, row in enumerate(rows):
            (want_value,), want_kinetic, want_potential, want_sep = values[row]
            assert (got_values[b], kinetics[b], potentials[b]) == (
                want_value, want_kinetic, want_potential
            )
            assert min_seps[b] == want_sep
        for k in range(3):
            terms, min_seps = grid_potential(spec, times, positions[rows], k)
            for b, row in enumerate(rows):
                want_terms, want_sep = grid_potential(spec, times, positions[row], k)
                assert min_seps[b] == want_sep
                assert all(np.array_equal(t[b], w) for t, w in zip(terms, want_terms))


def test_batch_with_a_colliding_loop_rejects_only_that_loop():
    spec3 = make_spec(masses=np.array([1.0, 2.0, 0.5]))
    rng = np.random.default_rng(61)
    loop0 = random_loop(rng, n_bodies=3, dim=2, harmonics=3, scale=0.4)
    other = random_loop(rng, n_bodies=3, dim=2, harmonics=3, scale=1.6)
    colliding = loop0.coefficients.copy()
    colliding[1] = colliding[0]  # bodies 0 and 1 coincide at every node
    xs = np.stack([loop0.flat(), colliding.reshape(-1), other.flat()])
    evaluator = _Evaluator(spec3, loop0)
    with pytest.raises(CollisionSample):
        evaluator.evaluate(xs, 1)
    got = evaluator.actions(xs)
    assert got[1] is None
    for row in (0, 2):
        assert_same_evaluation(got[row], evaluator.action(xs[row]))
    assert evaluator.actions(xs[1:2]) == [None]
    # the size and finiteness checks cover every row of a batch
    bad = xs.copy()
    bad[2, 4] = np.nan
    with pytest.raises(ShapeMismatch):
        evaluator.actions(bad)
    with pytest.raises(ShapeMismatch):
        evaluator.actions(xs[:, :-1])


def batch_sizes(monkeypatch, evaluator):
    """The row counts of the evaluator's batched evaluate calls, recorded as they happen."""
    sizes = []
    evaluate = evaluator.evaluate

    def recording(x, order):
        sizes.append(len(x))
        return evaluate(x, order)

    monkeypatch.setattr(evaluator, "evaluate", recording)
    return sizes


def test_actions_in_several_batches_equal_row_by_row_bit_for_bit(monkeypatch):
    # N = 6, M = 24: 1575 pair-nodes per loop, so 13 rows take several batches
    spec = make_spec(masses=np.linspace(0.8, 1.3, 6))
    rng = np.random.default_rng(27)
    scales = np.geomspace(0.2, 4.0, 13)
    loops = [random_loop(rng, n_bodies=6, harmonics=24, scale=s) for s in scales]
    xs = np.stack([loop.flat() for loop in loops])
    evaluator = _Evaluator(spec, loops[0])
    rows = ACTION_PAIR_NODES // (evaluator.n_t * 15)
    bad = rows + 1
    assert rows < bad < 2 * rows < len(xs)  # the colliding row sits in the second of several batches
    colliding = loops[bad].coefficients.copy()
    colliding[4] = colliding[2]  # bodies 2 and 4 coincide at every node
    xs[bad] = colliding.reshape(-1)
    singles = [evaluator.action(x) if b != bad else None for b, x in enumerate(xs)]
    with pytest.raises(CollisionSample):
        evaluator.action(xs[bad])

    sizes = batch_sizes(monkeypatch, evaluator)
    got = evaluator.actions(xs)
    assert len(got) == len(xs)
    assert got[bad] is None
    for b in set(range(len(xs))) - {bad}:
        assert_same_evaluation(got[b], singles[b])
    # only the batch holding the colliding row is evaluated again row by row
    whole = [min(rows, len(xs) - start) for start in range(0, len(xs), rows)]
    assert sizes == whole[:2] + [1] * rows + whole[2:]

    sizes.clear()
    without = np.delete(xs, bad, axis=0)
    for got_row, want in zip(evaluator.actions(without), singles[:bad] + singles[bad + 1 :]):
        assert_same_evaluation(got_row, want)
    assert max(sizes) <= rows and sum(sizes) == len(without)


def test_ring6_round_peak_memory():
    # The 12 circular starts of the ring6 search (N = 6, M = 24, windings
    # {1, 3, 5} x 4, seed 0) as one order-1 round: evaluated 6 loops to a
    # grid_potential call, its traced peak was 0.589 MiB; 3 to a call, 0.356.
    spec = make_spec(masses=np.ones(6))
    starts = [circular_seed(spec, 2, 24, w, s, 0) for w in (1, 3, 5) for s in range(4)]
    xs = np.stack([start.flat() for start in starts])
    evaluator = _Evaluator(spec, starts[0])
    evaluator.actions(xs)  # warm: caches and the grid are built
    tracemalloc.start()
    try:
        got = evaluator.actions(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(evaluation is not None for evaluation in got)
    assert peak < 0.45 * 2**20


@pytest.mark.parametrize("n_bodies, harmonics", [(1, 24), (2, 8)])
def test_actions_on_few_pair_nodes_take_one_batch(monkeypatch, n_bodies, harmonics):
    # a single body has no pairs; N = 2, M = 8 loops have 41 pair-nodes each
    spec = make_spec(masses=np.ones(n_bodies))
    rng = np.random.default_rng(n_bodies)
    loops = [random_loop(rng, n_bodies=n_bodies, harmonics=harmonics) for _ in range(12)]
    xs = np.stack([loop.flat() for loop in loops])
    evaluator = _Evaluator(spec, loops[0])
    sizes = batch_sizes(monkeypatch, evaluator)
    got = evaluator.actions(xs)
    assert sizes == [12]
    for x, evaluation in zip(xs, got):
        assert_same_evaluation(evaluation, evaluator.action(x))
    assert evaluator.actions(xs[:0]) == []
