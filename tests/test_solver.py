import importlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import TWO_PI, balance_radius, make_spec, pair_circle, random_loop
from orbitact.action import _Evaluator, action, action_hessian
from orbitact.errors import CollisionSample, InvalidStart, OrbitactError
from orbitact.loopspace import LoopConfiguration, h1_distance, shift_loop
from orbitact.solver import (
    OrbitRecord,
    SolveOptions,
    SolveStatus,
    _minres,
    _newton_step,
    _two_loop,
    circular_seed,
    dedupe,
    descend,
    multistart,
    resolve_workers,
)
from orbitact.verify import euler_lagrange_residual

solver_module = importlib.import_module("orbitact.solver")


def test_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(history_len=0)
    with pytest.raises(ValueError):
        SolveOptions(step_guard=0.0)
    with pytest.raises(ValueError):
        SolveOptions(step_guard=1.0)
    for bad in (float("inf"), float("nan"), -1e-9, True, 10**400, -(10**400)):
        with pytest.raises(ValueError, match="grad_tol"):
            SolveOptions(grad_tol=bad)
    for name in ("max_iters", "history_len", "seed"):
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError):
                SolveOptions(**{name: bad})
    with pytest.raises(ValueError):
        SolveOptions(seed=-1)
    assert SolveOptions(max_iters=np.int64(7), seed=np.int32(0)).max_iters == 7


@pytest.mark.parametrize("name", ["grad_tol", "step_guard"])
@pytest.mark.parametrize("bad", ["1e-9", None, 1j, np.array([1e-9, 1e-9])])
def test_options_refuse_non_real_arguments(name, bad):
    # a bare TypeError, or numpy's ambiguous truth value for the array
    with pytest.raises(ValueError, match=name):
        SolveOptions(**{name: bad})


def _forbid_eigh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigh called where the MINRES step is a descent step")

    monkeypatch.setattr(solver_module.np.linalg, "eigh", forbidden)


def _counting_minres(monkeypatch, products):
    """Wrap solver._minres so that each solve appends its number of products to products."""
    original = solver_module._minres

    def counted(apply, *args):
        products.append(0)

        def product(v):
            products[-1] += 1
            return apply(v)

        return original(product, *args)

    monkeypatch.setattr(solver_module, "_minres", counted)


def test_descend_two_body_circle_converges(monkeypatch):
    # A minimum: every polish step comes from MINRES, never from eigh.
    _forbid_eigh(monkeypatch)
    calls = []
    _counting_minres(monkeypatch, calls)
    spec = make_spec()
    start = circular_seed(spec, 2, 4, 1, 0, base_seed=0)
    report = descend(spec, start, SolveOptions(max_iters=300))
    assert report.status is SolveStatus.CONVERGED
    assert calls
    assert report.grad_norm < 1e-9
    assert report.action_value == pytest.approx(TWO_PI, rel=1e-10)

    # the recorded action trace never increases
    values = [entry[0] for entry in report.ps_trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
    # and its tail is quiet at the resolution of f
    tail = values[-6:]
    assert all(abs(b - a) < 1e-12 * (1.0 + abs(b)) for a, b in zip(tail, tail[1:]))
    # trace lengths agree and count the iterations
    assert len(report.ps_trace) == report.iterations + 1
    assert len(report.kinetic_trace) == len(report.ps_trace)
    assert len(report.min_separation_trace) == len(report.ps_trace)


def test_converged_separation_matches_balance_radius():
    spec = make_spec()
    report = descend(spec, circular_seed(spec, 2, 4, 1, 1, base_seed=3))
    assert report.status is SolveStatus.CONVERGED
    want = 2.0 * balance_radius(spec, 1)
    assert report.min_separation_trace[-1] == pytest.approx(want, abs=1e-6)


def test_converged_runs_satisfy_residual_scale():
    # at a critical point of the discretized action the motion-equation
    # residual in the retained band is sqrt(2/T) |g| / (1 + kinetic); the
    # factor of 10 and the 1e-11 pad cover the truncated harmonics
    spec = make_spec()
    for seed_index in range(3):
        report = descend(spec, circular_seed(spec, 2, 4, 1, seed_index, base_seed=11))
        assert report.status is SolveStatus.CONVERGED
        residual = euler_lagrange_residual(spec, report.final_loop)
        bound = np.sqrt(2.0 / spec.period) * report.grad_norm / (1.0 + report.kinetic)
        assert residual <= 10.0 * bound + 1e-11


def test_invalid_start_raises():
    spec = make_spec()
    coeffs = np.zeros((2, 1, 2, 2))
    coeffs[:, 0, 0, 0] = 1.0  # coincident bodies at every time
    with pytest.raises(InvalidStart, match="samples an exact collision"):
        descend(spec, LoopConfiguration(2, 2, TWO_PI, coeffs))
    coeffs[1, 0, 0, 0] = -1.0
    coeffs[0, 0, 1, 1] = 1e200  # a finite loop whose kinetic energy overflows
    with np.errstate(all="ignore"), pytest.raises(InvalidStart, match="non-finite action"):
        descend(spec, LoopConfiguration(2, 2, TWO_PI, coeffs))


def test_max_iters_status():
    spec = make_spec()
    start = circular_seed(spec, 2, 4, 1, 0, base_seed=0)
    report = descend(spec, start, SolveOptions(max_iters=2))
    assert report.status is SolveStatus.MAX_ITERS
    assert report.iterations <= 2


def test_stalled_near_collision_status():
    # From this crowded three-body start the separation guard admits only
    # steps that move the minimum separation by about one rounding unit. Their
    # decrease soon drops below f's resolution, the guard rejects every polish
    # trial, and neither phase can certify progress. (With step_guard = 0.05
    # this start converges.)
    spec = make_spec(masses=np.ones(3))
    start = random_loop(np.random.default_rng(38), n_bodies=3, dim=2, harmonics=3, scale=0.3)
    opts = SolveOptions(max_iters=200, step_guard=1e-15)
    report = descend(spec, start, opts)
    assert report.status is SolveStatus.STALLED_NEAR_COLLISION
    assert report.grad_norm > opts.grad_tol


def test_polish_converges_through_the_rounding_floor():
    # On the ladder2 problem this start reaches the polish with a gradient
    # near 1e-8, where the Newton steps that cut the gradient raise f by a few
    # ulp. The polish must certify those steps by the gradient's line
    # integral, not refuse them, and still record a trace that never increases.
    spec = make_spec()
    start = circular_seed(spec, 2, 8, 1, 0, 19)
    report = descend(spec, start, SolveOptions(max_iters=500))
    assert report.status is SolveStatus.CONVERGED
    assert report.grad_norm < 1e-9
    values = [entry[0] for entry in report.ps_trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
    fresh = action(spec, report.final_loop).value
    assert abs(report.action_value - fresh) <= 8.0 * np.finfo(float).eps * (1.0 + abs(fresh))


def _system(kind, n, rng):
    """A symmetric system S Q Lambda Q^T S of the given kind, with S^2 a positive diagonal d.

    d spans 1 to 2209, as the kinetic diagonal does at M = 24, and 1/d is
    the preconditioner; |Lambda| lies in [1, 10]. Returns the matrix, 1/d,
    an orthonormal basis of its kernel (n, k) and a right-hand side in its range.
    """
    d = np.geomspace(1.0, 2209.0, n)[rng.permutation(n)]
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigvals = rng.uniform(1.0, 10.0, n)
    if kind == "indefinite":
        eigvals[::3] *= -1.0
    kernel = q[:, :0]
    if kind == "singular" and n > 1:
        eigvals[: n // 4 + 1] = 0.0
        kernel = np.linalg.qr(q[:, : n // 4 + 1] / np.sqrt(d)[:, None])[0]
    root = np.sqrt(d)[:, None]
    a = root * ((q * eigvals) @ q.T) * root.T
    a = 0.5 * (a + a.T)
    return a, 1.0 / d, kernel, a @ rng.standard_normal(n)


@pytest.mark.parametrize("kind", ["spd", "indefinite", "singular"])
@pytest.mark.parametrize("n", [1, 64, 150])
def test_minres_matches_dense_solve(kind, n):
    # In floating point the Lanczos vectors lose orthogonality, so MINRES
    # need not terminate within n iterations as it does in exact arithmetic:
    # on the n = 64 indefinite system it is 1.3e-8 off after 64 and 1e-13
    # after 128. The cap of 4n leaves room for that. The tolerance is far
    # tighter than the polish's, so the solve is checked as a linear solver.
    rng = np.random.default_rng(n)
    a, minv, kernel, b = _system(kind, n, rng)
    got = _minres(lambda v: a @ v, b, minv, 4 * n, rtol=1e-13)
    if kernel.shape[1]:
        # Off the kernel, the solution is the least-squares one; on it, any.
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        got = got - kernel @ (kernel.T @ got)
    else:
        want = np.linalg.solve(a, b)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    assert np.array_equal(_minres(lambda v: a @ v, np.zeros(n), minv, n, rtol=1e-13), np.zeros(n))


def test_minres_holds_a_fixed_number_of_vectors_whatever_its_products():
    # Two diagonal systems of n = 2000. With three distinct eigenvalues the
    # Krylov space has dimension 3, so MINRES stops after 3 products although
    # maxiter = n; with eigenvalues spread over [1, 100] it takes more than
    # 16 (132 with numpy 2.4). Either way the memory it traces must stay
    # below 16 n floats (250 KB): a fixed handful of work vectors, so neither
    # one stored Lanczos vector per product nor the n x n floats (32 MB) of
    # a basis sized to maxiter.
    n = 2000
    b = np.random.default_rng(0).standard_normal(n)
    counts = []
    for diagonal, tol in (
        (np.array([1.0, 2.0, 3.0])[np.arange(n) % 3], 1e-12),
        (np.linspace(1.0, 100.0, n), 1e-10),
    ):
        products = []

        def apply(v):
            products.append(v.size)
            return diagonal * v

        tracemalloc.start()
        try:
            x = _minres(apply, b, np.ones(n), n, rtol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.abs(diagonal * x - b).max() <= tol * np.abs(b).max()
        assert peak < 16 * n * 8
        counts.append(len(products))
    assert counts[0] == 3 and counts[1] > 16


def _rotation_basis(x, dim):
    """Orthonormal basis (n, k) of the infinitesimal rotations at the flat loop x.

    Each coordinate plane (a, b) gives the generator that maps every position
    c to c_a e_b - c_b e_a; the loops here are not collinear, so all are kept.
    """
    coords = x.reshape(-1, dim)
    columns = []
    for a in range(dim):
        for b in range(a + 1, dim):
            gen = np.zeros_like(coords)
            gen[:, a] = -coords[:, b]
            gen[:, b] = coords[:, a]
            columns.append(gen.reshape(-1))
    if not columns:
        return np.empty((x.size, 0))
    return np.linalg.qr(np.stack(columns, axis=1))[0]


def _eigh_step(hess):
    """The map g -> modified Newton step -V |Lambda|^-1 V^T g of H's eigen-decomposition.

    The |eigenvalues| are clipped at max(1e-10, 1e-12 max|eigenvalue|),
    which keeps the step bounded near saddles as well as minima.
    """
    eigvals, eigvecs = np.linalg.eigh(hess)
    scale = np.maximum(np.abs(eigvals), max(1e-10, 1e-12 * float(np.abs(eigvals).max())))
    return lambda g: -(eigvecs @ ((eigvecs.T @ g) / scale))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_factored_polish_step_matches_eigh_step_at_minima(monkeypatch, dim):
    # At a converged minimum the gradient is rounding noise, so a random
    # vector off the rotation modes, as every gradient is, stands in for it.
    # Off the rotations, a tight MINRES solve with the polish's product
    # equals the eigh pseudo-inverse step. The polish's own step solves only
    # to 1e-6, so it is checked for what the polish needs of it: a descent
    # step with that residual.
    spec = make_spec()
    if dim == 1:
        start = random_loop(np.random.default_rng(0), dim=1, scale=2.0)
    else:
        start = circular_seed(spec, dim, 4, 1, 0, base_seed=0)
    report = descend(spec, start, SolveOptions(max_iters=300))
    assert report.status is SolveStatus.CONVERGED
    loop = report.final_loop
    x = loop.flat()
    basis = _rotation_basis(x, dim)
    assert basis.shape == (x.size, dim * (dim - 1) // 2)
    g = np.random.default_rng(1).standard_normal(x.size)
    g -= basis @ (basis.T @ g)

    def project(v):
        return v - basis @ (basis.T @ v)

    # MINRES solves with H + sigma I, sigma = 1e-12 max D here, so the eigh
    # step is taken of the same matrix (against H alone they differ by about
    # 5e-11 relatively).
    evaluator = _Evaluator(spec, loop)
    sigma = 1e-12 * evaluator.kin_diag.max()
    assert sigma > 1e-10
    hess = action_hessian(spec, loop)
    product = evaluator.hessp(x)
    shifted = product.shifted(sigma)
    minv = 1.0 / product.kin_rows.reshape(-1)
    rhs = -product.to_rows(g)
    tight = product.from_rows(_minres(shifted.rows, rhs, minv, rhs.size, rtol=1e-13))
    want = project(_eigh_step(hess + sigma * np.eye(x.size))(g))
    assert np.linalg.norm(project(tight) - want) <= 1e-12 * np.linalg.norm(want)

    with monkeypatch.context() as patch:
        _forbid_eigh(patch)
        step = _newton_step(product)(g)
    assert float(g @ step) < 0
    residual = shifted.rows(product.to_rows(step)) - rhs
    assert np.sqrt(residual @ (minv * residual)) <= 1e-6 * np.sqrt(rhs @ (minv * rhs))


def test_polish_solves_stay_below_their_cap(monkeypatch):
    # On the ladder2 problem this start's polish solved twice to 1e-13, in
    # 64 and 42 products; the first reached the cap of n = 64. Solved to 1e-6,
    # no solve comes near the cap, and the start still converges.
    products = []
    _counting_minres(monkeypatch, products)
    spec = make_spec()
    start = circular_seed(spec, 2, 8, 5, 2, base_seed=4)
    report = descend(spec, start, SolveOptions(max_iters=500))
    assert report.status is SolveStatus.CONVERGED
    assert products
    assert max(products) < start.coefficients.size


def test_polish_converges_where_rounding_noise_meets_the_rotation_mode():
    # This ring6 start reaches the polish next to the rigid orbit at
    # 320.936166. There the rotation is a direction of H with curvature of
    # about 6e-10, and the gradient's rounding noise has a component of
    # about 7e-15 along it. Solving H p = -g unshifted puts a 1e-5 rotation
    # into p, the line search rejects every trial, and the run stalls at
    # |g| = 1.08e-9. The shift sigma = 1e-12 max D caps that component.
    spec = make_spec(masses=np.ones(6))
    report = descend(spec, circular_seed(spec, 2, 24, 5, 3, base_seed=16))
    assert report.status is SolveStatus.CONVERGED
    assert report.action_value == pytest.approx(320.936166029789, rel=1e-12)


def test_refused_newton_step_goes_along_the_preconditioned_gradient(monkeypatch):
    # Near the square saddle the Hessian is indefinite: along its negative
    # eigenvector the MINRES step goes uphill, so the step is refused and
    # -D^-1 g, MINRES's first direction, is taken without a dense Hessian.
    spec = make_spec(masses=np.ones(4))
    loop = circular_seed(spec, 2, 4, 1, 0, base_seed=0, noise=0.0)
    x = loop.flat()
    eigvals, eigvecs = np.linalg.eigh(action_hessian(spec, loop))
    assert eigvals[0] < 0
    g = eigvecs[:, 0]
    evaluator = _Evaluator(spec, loop)
    want = -g / evaluator.kin_diag.reshape(-1)
    with monkeypatch.context() as patch:
        _forbid_eigh(patch)
        step = _newton_step(evaluator.hessp(x))(g)
    assert np.linalg.norm(step - want) <= 1e-15 * np.linalg.norm(want)
    assert float(g @ step) < 0


def test_descent_lands_its_refused_polish_step_without_a_dense_hessian(monkeypatch):
    # On this two-body start one settled polish step's MINRES solution fails
    # the descent or curvature test; the polish steps along -D^-1 g instead,
    # builds no dense Hessian and still converges.
    def forbidden(*args, **kwargs):
        raise AssertionError("the polish built the dense Hessian")

    refused = []
    original = solver_module._minres

    def checked(apply, b, *args):
        p = original(apply, b, *args)
        refused.append(not (b.dot(p) > 0 and p.dot(apply(p)) > 0))
        return p

    _forbid_eigh(monkeypatch)
    monkeypatch.setattr(solver_module, "_action_hessian", forbidden)
    monkeypatch.setattr(solver_module, "_minres", checked)
    spec = make_spec()
    report = descend(spec, circular_seed(spec, 2, 8, 1, 1, base_seed=3))
    assert refused.count(True) == 1
    assert report.status is SolveStatus.CONVERGED
    assert report.iterations == 17
    assert report.action_value == pytest.approx(TWO_PI, abs=1e-12)


def test_colliding_trial_is_halved_not_raised(monkeypatch):
    action_module = importlib.import_module("orbitact.action")
    original = action_module.grid_potential
    calls = []

    def first_trial_collides(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # call 1 evaluates the start
            raise CollisionSample("injected collision")
        return original(*args, **kwargs)

    monkeypatch.setattr(action_module, "grid_potential", first_trial_collides)
    spec = make_spec()
    report = descend(spec, circular_seed(spec, 2, 4, 1, 0, base_seed=0), SolveOptions(max_iters=300))
    assert len(calls) > 2
    assert report.status is SolveStatus.CONVERGED


def test_each_accepted_step_evaluates_the_action_once(monkeypatch):
    # From this start every line search accepts its first trial, so a run of
    # n steps makes one start evaluation plus one trial evaluation per step.
    action_module = importlib.import_module("orbitact.action")
    original = action_module.grid_potential
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(action_module, "grid_potential", counting)
    spec = make_spec()
    report = descend(spec, circular_seed(spec, 2, 4, 1, 2, base_seed=0), SolveOptions(max_iters=5))
    assert report.status is SolveStatus.MAX_ITERS
    assert report.iterations == 5
    assert len(calls) == 1 + report.iterations


def test_two_loop_matches_dense_bfgs_inverse():
    rng = np.random.default_rng(7)
    n = 6
    history = []
    while len(history) < 4:
        s = rng.standard_normal(n)
        y = s + 0.5 * rng.standard_normal(n)
        sy = float(s @ y)
        if sy > 0:
            history.append((s, y, sy))
    dinv = 1.0 / rng.uniform(0.5, 50.0, n)  # inverse of a random positive diagonal D
    # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, oldest pair first,
    # from gamma D^-1 with gamma = s.y / (y.D^-1 y) of the newest pair.
    _, last_y, last_sy = history[-1]
    h = (last_sy / float(last_y @ (dinv * last_y))) * np.diag(dinv)
    for s, y, sy in history:
        rho = 1.0 / sy
        left = np.eye(n) - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    g = rng.standard_normal(n)
    np.testing.assert_allclose(_two_loop(history, g, dinv), h @ g, rtol=1e-12, atol=0.0)
    assert np.array_equal(_two_loop([], g, dinv), dinv * g)


def test_step_guard_limits_separation_drop():
    spec = make_spec()
    opts = SolveOptions(step_guard=0.25)
    report = descend(spec, circular_seed(spec, 2, 4, 1, 0, base_seed=5), opts)
    seps = report.min_separation_trace
    for before, after in zip(seps, seps[1:]):
        assert after >= (1.0 - 0.25) * before - 1e-12


def test_one_body_descent_converges_with_no_separation_to_guard():
    # a lone body has no pair, so its minimum separation is +inf and the
    # step guard's bound (1 - step_guard) * inf never refuses a trial; the
    # action is the kinetic energy alone, minimal at the zero loop
    spec = make_spec(masses=np.array([1.3]), modulation_eps=0.3)
    report = descend(spec, random_loop(np.random.default_rng(0), n_bodies=1, harmonics=4))
    assert report.status is SolveStatus.CONVERGED
    assert abs(report.action_value) < 1e-12
    assert report.min_separation_trace == (math.inf,) * (report.iterations + 1)


def test_three_body_choreography_start_converges():
    spec = make_spec(masses=np.array([1.0, 1.0, 1.0]))
    report = descend(spec, circular_seed(spec, 2, 4, 1, 0, base_seed=2))
    assert report.status is SolveStatus.CONVERGED
    assert report.grad_norm < 1e-9
    assert euler_lagrange_residual(spec, report.final_loop) < 1e-7


def test_polish_converges_onto_a_modulated_saddle(monkeypatch):
    # Under modulation the noise-free N = 4 square seed stays on the square
    # family, and the polish converges onto its Morse-index-1 saddle, where
    # the Hessian is indefinite off the rotation direction. MINRES takes
    # indefinite systems, and its steps there are descent steps, so the
    # eigen-decomposition fallback never runs.
    calls = []
    _counting_minres(monkeypatch, calls)
    with monkeypatch.context() as patch:
        _forbid_eigh(patch)
        spec = make_spec(masses=np.ones(4), modulation_eps=0.1)
        start = circular_seed(spec, 2, 32, 1, 0, base_seed=0, noise=0.0)
        report = descend(spec, start, SolveOptions(max_iters=2000))
    assert calls
    assert report.status is SolveStatus.CONVERGED
    assert report.action_value == pytest.approx(27.937265532, rel=1e-8)
    assert euler_lagrange_residual(spec, report.final_loop) < 1e-7
    eigvals = np.linalg.eigvalsh(action_hessian(spec, report.final_loop))
    assert (eigvals < -1e-8 * np.abs(eigvals).max()).sum() == 1


def test_circular_seed_deterministic_and_distinct():
    spec = make_spec()
    a = circular_seed(spec, 2, 8, 3, 0, base_seed=0)
    b = circular_seed(spec, 2, 8, 3, 0, base_seed=0)
    assert np.array_equal(a.coefficients, b.coefficients)
    c = circular_seed(spec, 2, 8, 3, 1, base_seed=0)
    assert not np.array_equal(a.coefficients, c.coefficients)
    d = circular_seed(spec, 2, 8, 3, 0, base_seed=1)
    assert not np.array_equal(a.coefficients, d.coefficients)


def test_circular_seed_populates_requested_winding():
    spec = make_spec()
    loop = circular_seed(spec, 2, 8, 5, 0, base_seed=0, noise=0.0)
    energies = (loop.coefficients**2).sum(axis=(0, 2, 3))
    assert energies[2] > 0  # order 5 lives in row (5-1)/2 = 2
    assert energies[[0, 1, 3, 4, 5, 6, 7]].max() == 0.0


def test_winding_validation():
    spec = make_spec()
    for bad in (0, -3, 2, 4):
        with pytest.raises(ValueError):
            circular_seed(spec, 2, 8, bad, 0, base_seed=0)
    with pytest.raises(ValueError):
        circular_seed(spec, 2, 4, 9, 0, base_seed=0)  # needs M >= 5
    with pytest.raises(ValueError):
        circular_seed(spec, 2, 8, True, 0, base_seed=0)
    with pytest.raises(ValueError):
        circular_seed(spec, 1, 8, 1, 0, base_seed=0)  # dim < 2


@pytest.mark.parametrize(
    "args, name",
    [
        ((2.0, 8, 1, 0, 0), "dim"),
        ((2, 4.0, 1, 0, 0), "harmonics"),  # failed inside numpy with a TypeError
        ((2, True, 1, 0, 0), "harmonics"),
        ((2, 8, 1, True, 0), "start_index"),  # gave the loop of start index 1
        ((2, 8, 1, 0.0, 0), "start_index"),
        ((2, 8, 1, 0, True), "base_seed"),  # gave the loop of base seed 1
        ((2, 8, 1, 0, np.float64(0.0)), "base_seed"),
    ],
)
def test_circular_seed_validates_integer_arguments(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        circular_seed(make_spec(), *args)


@pytest.mark.parametrize(
    "args, name", [((2, 8, 1, -1, 0), "start_index"), ((2, 8, 1, 0, -1), "base_seed")]
)
def test_circular_seed_refuses_negative_indices(args, name):
    # failed inside numpy, which named neither argument
    with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
        circular_seed(make_spec(), *args)


def test_circular_seed_accepts_numpy_integers():
    got = circular_seed(make_spec(), np.int64(2), np.int32(8), np.int64(3), np.uint8(1), np.int64(4))
    assert np.array_equal(got.coefficients, circular_seed(make_spec(), 2, 8, 3, 1, 4).coefficients)


@pytest.mark.parametrize(
    "noise", [True, False, np.True_, "0.02", None, 1j, np.nan, np.inf, -np.inf, -0.01, 10**400, -(10**400)]
)
def test_circular_seed_validates_noise(noise):
    # True was taken as 1.0, a negative noise was accepted, a NaN or
    # infinite one failed later with ShapeMismatch, and 10**400 with a bare
    # OverflowError
    with pytest.raises(ValueError, match="noise must be a finite real number >= 0"):
        circular_seed(make_spec(), 2, 8, 1, 0, 0, noise=noise)


def test_circular_seed_accepts_zero_and_numpy_noise():
    unperturbed = circular_seed(make_spec(), 2, 8, 1, 0, 0, noise=0.0).coefficients
    assert np.array_equal(circular_seed(make_spec(), 2, 8, 1, 0, 0, noise=0).coefficients, unperturbed)
    assert not unperturbed[:, 1:].any()  # the winding-1 circle alone
    default = circular_seed(make_spec(), 2, 8, 1, 0, 0).coefficients
    assert np.array_equal(circular_seed(make_spec(), 2, 8, 1, 0, 0, noise=np.float64(0.02)).coefficients, default)


def test_resolve_workers_explicit_and_env(monkeypatch):
    monkeypatch.delenv("ORBITACT_THREADS", raising=False)
    assert resolve_workers(3, n_tasks=8) == 3
    assert resolve_workers(3, n_tasks=2) == 2  # clamped to the task count
    assert resolve_workers(np.int64(3), n_tasks=8) == 3
    for bad in (0, -2, 2.5, 3.0, True, False, "3"):
        with pytest.raises(OrbitactError):
            resolve_workers(bad)
    assert resolve_workers(None, n_tasks=64) >= 1

    monkeypatch.setenv("ORBITACT_THREADS", "2")
    assert resolve_workers(None, n_tasks=8) == 2
    monkeypatch.setenv("ORBITACT_THREADS", "0")
    assert resolve_workers(None, n_tasks=64) >= 1
    monkeypatch.setenv("ORBITACT_THREADS", "")
    assert resolve_workers(None, n_tasks=64) >= 1
    monkeypatch.setenv("ORBITACT_THREADS", "-1")
    with pytest.raises(OrbitactError):
        resolve_workers(None)
    monkeypatch.setenv("ORBITACT_THREADS", "many")
    with pytest.raises(OrbitactError):
        resolve_workers(None)


def test_multistart_keeps_one_orbit_per_winding():
    spec = make_spec()
    result = multistart(spec, [1, 3], 2, SolveOptions(max_iters=300), harmonics=4)
    assert result.n_started == 4
    assert result.n_converged == 4
    assert result.n_dropped_unconverged == 0
    assert result.n_dropped_residual == 0
    assert len(result.records) == 2
    actions = [rec.action_value for rec in result.records]
    assert actions == sorted(actions)
    assert actions[0] == pytest.approx(TWO_PI, rel=1e-9)
    assert actions[1] == pytest.approx(3 * TWO_PI, rel=1e-9)
    windings = {rec.winding_seed_class for rec in result.records}
    assert windings == {1, 3}
    for rec in result.records:
        assert rec.el_residual < 1e-7
        assert len(rec.dedup_key) == 16


@pytest.mark.parametrize("masses", [(1.0, 2.0, 3.0), (1.0, 1.0, 0.2)])
def test_unequal_mass_search_finds_lagrange_circles(masses):
    # Each winding class converges to the rotating equilateral triangle. At
    # alpha = 2 with every pair on the inner branch, U = a S / s^2 and
    # I = S s^2 / sum(m) for side s and S = sum_{i<j} m_i m_j, so
    # U I = a S^2 / sum(m) does not depend on s. At force balance the
    # kinetic term (1/2) I w^2 equals U, so the action over T = 2 pi is
    # 4 pi U = 4 pi w sqrt(U I / 2).
    m = np.array(masses)
    spec = make_spec(masses=m)
    result = multistart(spec, [1, 3, 5], 4, SolveOptions(seed=0), harmonics=12, workers=1)
    assert result.n_started == result.n_converged == 12
    assert sorted(rec.winding_seed_class for rec in result.records) == [1, 3, 5]
    i, j = np.triu_indices(3, 1)
    u_times_i = spec.a * float((m[i] * m[j]).sum()) ** 2 / float(m.sum())
    for rec in result.records:
        want = 4.0 * math.pi * rec.winding_seed_class * math.sqrt(u_times_i / 2.0)
        assert rec.action_value == pytest.approx(want, rel=1e-10)


def test_multistart_parallel_matches_serial():
    spec = make_spec()
    kwargs = dict(starts_per_class=2, opts=SolveOptions(max_iters=300), harmonics=4)
    serial = multistart(spec, [1, 3], workers=1, **kwargs)
    parallel = multistart(spec, [1, 3], workers=2, **kwargs)
    assert len(serial.records) == len(parallel.records)
    for a, b in zip(serial.records, parallel.records):
        assert a.dedup_key == b.dedup_key
        assert np.array_equal(a.loop.coefficients, b.loop.coefficients)
        assert a.action_value == b.action_value


def assert_same_report(got, want):
    assert np.array_equal(got.final_loop.coefficients, want.final_loop.coefficients)
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert (got.action_value, got.kinetic, got.grad_norm) == (
        want.action_value, want.kinetic, want.grad_norm
    )
    assert got.ps_trace == want.ps_trace
    assert got.kinetic_trace == want.kinetic_trace
    assert got.min_separation_trace == want.min_separation_trace


@pytest.mark.parametrize(
    "eps, windings",
    [(0.0, (1, 3, 5)), (0.3, (1, 3))],  # the benchmark's ladder2 search, and a modulated one
)
def test_serial_multistart_equals_per_start_descents(eps, windings):
    # The serial search runs its descents in lockstep, each round's trials
    # evaluated as one batch; every start's report must equal its lone descent.
    spec = make_spec(modulation_eps=eps)
    opts = SolveOptions(seed=0)
    result = multistart(spec, windings, 4, opts, harmonics=8, workers=1)
    iterations = set()
    for start in result.reports:
        loop0 = circular_seed(spec, 2, 8, start.winding_class, start.start_index, opts.seed)
        assert_same_report(start.report, descend(spec, loop0, opts))
        iterations.add(start.report.iterations)
    assert len(iterations) > 1  # runs left the lockstep at different rounds


def test_multistart_drops_unconverged():
    spec = make_spec()
    result = multistart(spec, [1], 2, SolveOptions(max_iters=2), harmonics=4)
    assert result.n_dropped_unconverged == 2
    assert result.records == ()


def test_modulated_search_drops_converged_starts_by_residual():
    # at eps = 0.3 the winding-3 descents converge but miss the motion equations
    spec = make_spec(modulation_eps=0.3)
    result = multistart(spec, [1, 3], 2, SolveOptions(), harmonics=8, workers=1)
    assert result.n_started == 4
    assert result.n_converged == 4
    assert result.n_dropped_unconverged == 0
    assert result.n_dropped_residual == 2
    for start in result.reports:
        residual = euler_lagrange_residual(spec, start.report.final_loop)
        assert (residual < 1e-7) == (start.winding_class == 1)
    (record,) = result.records
    assert record.winding_seed_class == 1
    assert record.action_value == pytest.approx(6.247106677, rel=1e-9)
    assert record.el_residual < 1e-7


def test_multistart_validates_input():
    spec = make_spec()
    with pytest.raises(ValueError):
        multistart(spec, [], 2)
    with pytest.raises(ValueError):
        multistart(spec, [2], 2)
    with pytest.raises(ValueError):
        multistart(spec, [1], 0)
    for name, value in (("starts_per_class", 2.5), ("starts_per_class", True), ("harmonics", 2.5), ("dim", 2.5)):
        kwargs = {"starts_per_class": 1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            multistart(spec, [1], **kwargs)
    # the tolerances are checked before any start runs, as config_from_dict checks them
    for name in ("action_rel_tol", "path_tol", "el_residual_tol"):
        for bad in (-0.5, 0.0, float("nan"), float("inf"), True, "0.5", None, 10**400, -(10**400)):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                multistart(spec, [1], 3, **{name: bad})
            if name != "el_residual_tol":
                with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                    dedupe([], **{name: bad})


def _record(loop, value, grad_norm, winding=1, start=0):
    return OrbitRecord(
        loop=loop,
        action_value=value,
        kinetic=1.0,
        grad_norm=grad_norm,
        el_residual=1e-12,
        winding_seed_class=winding,
        start_index=start,
    )


def test_dedupe_groups_time_shifted_copies():
    loop = pair_circle(0.7, harmonics=2)
    shifted = shift_loop(loop, 1.234)
    records = [
        _record(loop, 5.0, 1e-10, start=0),
        _record(shifted, 5.0 + 1e-9, 5e-11, start=1),
    ]
    kept = dedupe(records)
    assert len(kept) == 1
    # the representative is the member with the smaller gradient norm
    assert kept[0].start_index == 1
    assert kept[0].dedup_key != ""


def test_dedupe_separates_distinct_actions_and_paths():
    small = pair_circle(0.5, harmonics=2)
    large = pair_circle(1.4, harmonics=2)
    records = [_record(small, 5.0, 1e-10, start=0), _record(large, 9.0, 1e-10, start=1)]
    assert len(dedupe(records)) == 2
    # same action but H^1-distant paths stay distinct as well
    records = [_record(small, 5.0, 1e-10, start=0), _record(large, 5.0, 1e-10, start=1)]
    assert len(dedupe(records)) == 2


def test_dedupe_half_period_mode_keeps_quarter_shift_distinct():
    loop = pair_circle(0.7, harmonics=2)
    quarter = shift_loop(loop, 0.25 * loop.period)
    half = shift_loop(loop, 0.5 * loop.period)
    records = [_record(loop, 5.0, 1e-10, 1, 0), _record(quarter, 5.0, 1e-10, 1, 1)]
    # with only {0, T/2} shifts allowed the quarter-shifted copy is distinct
    assert len(dedupe(records, half_period_only=True)) == 2
    records = [_record(loop, 5.0, 1e-10, 1, 0), _record(half, 5.0, 1e-10, 1, 1)]
    assert len(dedupe(records, half_period_only=True)) == 1


def test_dedupe_deterministic_order():
    spec = make_spec()
    loop = pair_circle(0.7, harmonics=2)
    records = [
        _record(loop, 7.0, 1e-10, 3, 1),
        _record(pair_circle(1.5, harmonics=2), 3.0, 1e-10, 1, 0),
    ]
    kept = dedupe(records)
    assert [r.action_value for r in kept] == [3.0, 7.0]
