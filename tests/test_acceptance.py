"""Acceptance gate: seven end-to-end checks against analytic oracles.

Each test prints one [PASS] line with the measured figures after its
assertions hold, so a verbose run reads as a per-criterion report.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from conftest import TWO_PI, balance_radius, make_spec, pair_circle, random_loop
from orbitact.action import action, action_value
from orbitact.cli import EXIT_OK, main
from orbitact.loopspace import LoopConfiguration, sample_trajectory
from orbitact.potential import strong_force_margin
from orbitact.solver import SolveOptions, SolveStatus, descend, multistart
from orbitact.verify import (
    check_holder_bound,
    check_modulation_symmetry,
    check_pairwise_identity,
    check_wirtinger,
    coercivity_bound,
    collision_blowup_probe,
    euler_lagrange_residual,
    run_inequality_ledger,
    solve_energy_bound,
)

SEARCH_WINDINGS = (1, 3, 5)


@pytest.fixture(scope="module")
def search_result():
    """Multistart over winding classes {1, 3, 5}, shared by criteria 3 and 6."""
    spec = make_spec()
    return spec, multistart(
        spec, SEARCH_WINDINGS, 4, SolveOptions(max_iters=500), harmonics=8
    )


def test_criterion_1_gradient_matches_finite_differences():
    started = time.monotonic()
    spec = make_spec(masses=np.array([1.0, 1.3, 0.7]))
    rng = np.random.default_rng(2024)
    scales = (0.35, 1.0, 2.2)  # cycle through inner-only and tail-reaching loops
    n_inner = 0
    n_outer = 0
    worst = 0.0
    h = np.longdouble(1e-6)
    for index in range(100):
        loop = random_loop(rng, n_bodies=3, dim=2, harmonics=8, scale=scales[index % 3])
        positions = sample_trajectory(loop)
        diff = positions[:, :, None, :] - positions[:, None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        iu, ju = np.triu_indices(3, k=1)
        pair_dist = dist[:, iu, ju]
        n_inner += bool(pair_dist.min() < spec.r1)
        n_outer += bool(pair_dist.max() > spec.r2)

        grad = action(spec, loop).gradient
        flat = loop.coefficients.astype(np.longdouble).reshape(-1)
        fd = np.empty(flat.size, dtype=np.longdouble)
        for idx in range(flat.size):
            plus = flat.copy()
            plus[idx] += h
            minus = flat.copy()
            minus[idx] -= h
            fp, _, _ = action_value(spec, LoopConfiguration(3, 2, TWO_PI, plus.reshape(loop.coefficients.shape)))
            fm, _, _ = action_value(spec, LoopConfiguration(3, 2, TWO_PI, minus.reshape(loop.coefficients.shape)))
            fd[idx] = (fp - fm) / (2 * h)
        # componentwise relative error with a unit floor in the denominator
        rel = np.abs(fd - grad.astype(np.longdouble)) / np.maximum(1.0, np.abs(grad))
        worst = max(worst, float(rel.max()))
        assert float(rel.max()) <= 1e-6
    elapsed = time.monotonic() - started
    assert n_inner >= 10 and n_outer >= 10  # both branches genuinely sampled
    assert elapsed < 60.0
    print(
        f"[PASS] Criterion 1: gradient vs central differences on 100 loops, "
        f"worst componentwise relative error {worst:.3e} <= 1e-6 "
        f"({n_inner} inner / {n_outer} tail-reaching, {elapsed:.1f}s)"
    )


def test_criterion_2_circle_radius_oracle():
    spec = make_spec()  # two bodies, equal masses, alpha = 2, a = 1, T = 2 pi
    r_star = balance_radius(spec, 1)  # bisection on m w^2 R = a m^2 alpha 2^-(alpha+1) R^-(alpha+1)
    start = pair_circle(r_star * (1.0 + 1e-3), harmonics=4)
    report = descend(spec, start)
    assert report.status is SolveStatus.CONVERGED
    residual = euler_lagrange_residual(spec, report.final_loop)
    assert residual <= 1e-8
    min_sep = report.min_separation_trace[-1]
    assert abs(min_sep - 2.0 * r_star) <= 1e-4
    print(
        f"[PASS] Criterion 2: started at R*(1+1e-3) with R*={r_star:.12f}, "
        f"converged with el_residual {residual:.3e} <= 1e-8 and "
        f"min_separation {min_sep:.12f} within 1e-4 of 2R*"
    )


def test_criterion_3_winding_class_multiplicity(search_result):
    started = time.monotonic()
    spec, result = search_result
    assert len(result.records) >= 3
    values = [rec.action_value for rec in result.records]
    assert all(b > a for a, b in zip(values, values[1:]))  # strictly increasing

    # per-winding oracle: action of the balanced circle found by bisection
    by_winding = {rec.winding_seed_class: rec.action_value for rec in result.records}
    assert set(by_winding) == set(SEARCH_WINDINGS)
    rels = {}
    for w in SEARCH_WINDINGS:
        radius = balance_radius(spec, w)
        omega = w * TWO_PI / spec.period
        kinetic = spec.period * omega**2 * radius**2
        potential = spec.period * spec.a * (2.0 * radius) ** (-spec.alpha)
        oracle = kinetic + potential
        rels[w] = abs(by_winding[w] - oracle) / oracle
        assert rels[w] <= 1e-4
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(
        f"[PASS] Criterion 3: {len(result.records)} distinct increasing critical values "
        f"{[f'{v:.9f}' for v in values]}, relative oracle errors "
        f"{[f'{rels[w]:.2e}' for w in SEARCH_WINDINGS]} all <= 1e-4"
    )


def test_criterion_4_collision_blowup():
    spec = make_spec()
    probe = collision_blowup_probe(spec, j_max=20)
    assert probe.strictly_increasing
    assert probe.final_value > 1e6
    # stated lower-bound route: f >= -int V >= a T (2 eps)^-2 at separation eps
    floor = spec.a * spec.period * (2.0 * probe.separations) ** -2.0
    assert np.all(probe.values >= floor)
    print(
        f"[PASS] Criterion 4: blow-up probe strictly increasing over j=1..20, "
        f"final value {probe.final_value:.3e} > 1e6"
    )


def test_criterion_5_inequality_ledger():
    started = time.monotonic()
    spec = make_spec(modulation_eps=0.3)
    rng = np.random.default_rng(0)
    n = 1000

    worst_pairwise = 0.0
    worst_holder = np.inf
    worst_wirtinger = np.inf
    worst_first_harmonic = 0.0
    worst_margin = np.inf
    worst_symmetry = 0.0
    theta_grid = (0.0, 0.5, 1.0, 1.5, 1.9)
    for idx in range(n):
        bodies = int(rng.integers(2, 7))
        masses = rng.uniform(0.1, 3.0, size=bodies)
        positions = rng.normal(scale=1.5, size=(bodies, 2))
        lhs = float(
            sum(
                masses[i] * masses[q] * ((positions[i] - positions[q]) ** 2).sum()
                for i in range(bodies)
                for q in range(i + 1, bodies)
            )
        )
        worst_pairwise = max(
            worst_pairwise, check_pairwise_identity(masses, positions) / (1.0 + lhs)
        )
        worst_holder = min(
            worst_holder, check_holder_bound(masses, positions, theta_grid[idx % 5])
        )

        loop = random_loop(rng, n_bodies=2, harmonics=6, scale=0.8)
        worst_wirtinger = min(worst_wirtinger, float(check_wirtinger(loop).min()))
        first = LoopConfiguration(2, 2, TWO_PI, loop.coefficients[:, :1])
        worst_first_harmonic = max(
            worst_first_harmonic, float(np.abs(check_wirtinger(first)).max())
        )

        r = float(np.exp(rng.uniform(np.log(1e-6 * spec.r1), np.log(spec.r1 * 0.999999))))
        scale_v = (1.0 - spec.modulation_eps) * spec.a * r**-spec.alpha
        worst_margin = min(worst_margin, strong_force_margin(spec, 0, 1, r) / scale_v)

        t = float(rng.uniform(0.0, spec.period))
        xi = rng.normal(size=2)
        xi *= float(rng.uniform(0.05, 3.0 * spec.r2)) / max(float(np.linalg.norm(xi)), 1e-12)
        worst_symmetry = max(worst_symmetry, check_modulation_symmetry(spec, 0, 1, t, xi))

    assert worst_pairwise <= 1e-10
    assert worst_holder >= -1e-12
    assert worst_wirtinger >= -1e-12
    assert worst_first_harmonic <= 1e-12
    assert worst_margin >= -1e-12
    assert worst_symmetry <= 1e-12

    # the packaged ledger agrees on the same problem
    report = run_inequality_ledger(spec, 2, 8, n, seed=0)
    assert report.passed
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"[PASS] Criterion 5: 1000-sample ledger passed; worst slacks: "
        f"pairwise {worst_pairwise:.2e} <= 1e-10, holder {worst_holder:.2e} >= -1e-12, "
        f"wirtinger {worst_wirtinger:.2e} >= -1e-12 (equality {worst_first_harmonic:.2e}), "
        f"margin {worst_margin:.2e} >= -1e-12, symmetry {worst_symmetry:.2e} <= 1e-12 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_6_coercivity_bound(search_result):
    spec, result = search_result
    K = max(rec.action_value for rec in result.records)
    bound = coercivity_bound(spec, K)
    checked = 0
    violations = 0
    for start in result.reports:
        rep = start.report
        for (value, _), kinetic in zip(rep.ps_trace, rep.kinetic_trace):
            if value <= K:
                checked += 1
                violations += bool(kinetic > bound)
    assert checked > 0
    assert violations == 0
    # closed forms hold exactly
    assert solve_energy_bound(0.0, 0.0, 1.0, K) == K
    assert solve_energy_bound(0.0, 0.0, 0.7, 3.25) == 3.25
    assert solve_energy_bound(1.0, 0.0, 1.0, 0.0) == 1.0
    print(
        f"[PASS] Criterion 6: all {checked} iterates inside the sublevel f <= K={K:.6f} "
        f"keep kinetic <= A(K)={bound:.6f}; closed forms A(K)=K and A=1 exact"
    )


def test_criterion_7_determinism(tmp_path, monkeypatch):
    config = {
        "problem": {"n_bodies": 2, "period": TWO_PI, "masses": [1.0, 1.0]},
        "potential": {"a": 1.0, "g": 0.01, "alpha": 2.0, "theta": 1.0, "r1": 2.0, "r2": 3.0},
        "solver": {"winding_classes": list(SEARCH_WINDINGS), "starts_per_class": 4},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    def run_once():
        assert main(["solve", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "out"
        hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("orbit_*.json"))
        }
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        critical_values = sorted(row["action"] for row in summary["orbits"])
        return hashes, critical_values

    monkeypatch.setenv("ORBITACT_THREADS", "1")
    hashes_a, values_a = run_once()
    hashes_b, values_b = run_once()
    monkeypatch.setenv("ORBITACT_THREADS", "2")
    hashes_c, values_c = run_once()

    assert len(hashes_a) >= 3
    assert hashes_a == hashes_b == hashes_c
    assert values_a == values_b == values_c
    print(
        f"[PASS] Criterion 7: {len(hashes_a)} orbit files byte-identical across reruns "
        f"and under ORBITACT_THREADS=2; sorted critical values stable at "
        f"{[f'{v:.9f}' for v in values_a]}"
    )
