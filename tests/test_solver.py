import importlib

import numpy as np
import pytest

from conftest import TWO_PI, balance_radius, make_spec, pair_circle, random_loop
from orbitact.errors import InvalidStart, OrbitactError
from orbitact.loopspace import LoopConfiguration, h1_distance, shift_loop
from orbitact.solver import (
    OrbitRecord,
    SolveOptions,
    SolveStatus,
    _two_loop,
    circular_seed,
    dedupe,
    descend,
    multistart,
    resolve_workers,
)
from orbitact.verify import euler_lagrange_residual


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


def test_descend_two_body_circle_converges():
    spec = make_spec()
    start = circular_seed(spec, 2, 4, 1, 0, base_seed=0)
    report = descend(spec, start, SolveOptions(max_iters=300))
    assert report.status is SolveStatus.CONVERGED
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
    with pytest.raises(InvalidStart):
        descend(spec, LoopConfiguration(2, 2, TWO_PI, coeffs))


def test_max_iters_status():
    spec = make_spec()
    start = circular_seed(spec, 2, 4, 1, 0, base_seed=0)
    report = descend(spec, start, SolveOptions(max_iters=2))
    assert report.status is SolveStatus.MAX_ITERS
    assert report.iterations <= 2


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
    # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, oldest pair first,
    # from gamma I with gamma = s.y / y.y of the newest pair.
    _, last_y, last_sy = history[-1]
    h = (last_sy / float(last_y @ last_y)) * np.eye(n)
    for s, y, sy in history:
        rho = 1.0 / sy
        left = np.eye(n) - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    g = rng.standard_normal(n)
    np.testing.assert_allclose(_two_loop(history, g), h @ g, rtol=1e-12, atol=0.0)
    assert np.array_equal(_two_loop([], g), g)


def test_step_guard_limits_separation_drop():
    spec = make_spec()
    opts = SolveOptions(step_guard=0.25)
    report = descend(spec, circular_seed(spec, 2, 4, 1, 0, base_seed=5), opts)
    seps = report.min_separation_trace
    for before, after in zip(seps, seps[1:]):
        assert after >= (1.0 - 0.25) * before - 1e-12


def test_three_body_choreography_start_converges():
    spec = make_spec(masses=np.array([1.0, 1.0, 1.0]))
    report = descend(spec, circular_seed(spec, 2, 4, 1, 0, base_seed=2))
    assert report.status is SolveStatus.CONVERGED
    assert report.grad_norm < 1e-9
    assert euler_lagrange_residual(spec, report.final_loop) < 1e-7


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


def test_resolve_workers_explicit_and_env(monkeypatch):
    monkeypatch.delenv("ORBITACT_THREADS", raising=False)
    assert resolve_workers(3, n_tasks=8) == 3
    assert resolve_workers(3, n_tasks=2) == 2  # clamped to the task count
    with pytest.raises(OrbitactError):
        resolve_workers(0)
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


def test_multistart_drops_unconverged():
    spec = make_spec()
    result = multistart(spec, [1], 2, SolveOptions(max_iters=2), harmonics=4)
    assert result.n_dropped_unconverged == 2
    assert result.records == ()


def test_multistart_validates_input():
    spec = make_spec()
    with pytest.raises(ValueError):
        multistart(spec, [], 2)
    with pytest.raises(ValueError):
        multistart(spec, [2], 2)
    with pytest.raises(ValueError):
        multistart(spec, [1], 0)


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
