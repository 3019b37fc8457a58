"""Shared builders for the test suite."""

import numpy as np

from orbitact.loopspace import LoopConfiguration
from orbitact.potential import PotentialSpec

TWO_PI = 2.0 * np.pi


def make_spec(**overrides):
    """Two-body reference problem; keyword overrides swap individual fields."""
    params = dict(
        masses=np.array([1.0, 1.0]),
        a=1.0,
        g=0.01,
        alpha=2.0,
        theta=1.0,
        r1=2.0,
        r2=3.0,
        modulation_eps=0.0,
        period=TWO_PI,
    )
    params.update(overrides)
    return PotentialSpec(**params)


def random_loop(rng, n_bodies=2, dim=2, harmonics=4, period=TWO_PI, scale=1.0):
    """Random loop with 1/m^2 harmonic decay so sampled paths stay tame."""
    orders = np.arange(1, 2 * harmonics, 2, dtype=float)
    coeffs = rng.standard_normal((n_bodies, harmonics, 2, dim))
    coeffs *= scale / orders[None, :, None, None] ** 2
    return LoopConfiguration(n_bodies, dim, period, coeffs)


def pair_circle(radius, winding=1, harmonics=1, period=TWO_PI, dim=2):
    """Two antipodal bodies on a circle of the given radius (separation 2r).

    The motion sits in the single odd harmonic `winding`, so the separation is
    constant in time and the quadrature of any radial potential is exact.
    """
    row = (winding - 1) // 2
    if row >= harmonics:
        raise ValueError("winding not representable with this many harmonics")
    coeffs = np.zeros((2, harmonics, 2, dim))
    coeffs[0, row, 0, 0] = radius
    coeffs[0, row, 1, 1] = radius
    coeffs[1] = -coeffs[0]
    return LoopConfiguration(2, dim, period, coeffs)


def balance_radius(spec, winding=1, lo=1e-3, hi=50.0):
    """Circle radius where spin and attraction balance, found by bisection.

    For two unit masses on antipodal circles of radius R with angular rate
    w = winding * (2 pi / T), the radial equation of m R w^2 against the
    inner-branch pull a alpha (2R)^(-alpha-1) m^2 has a single positive root;
    the bracket is widened as needed and then halved 200 times.
    """
    m1, m2 = float(spec.masses[0]), float(spec.masses[1])
    omega = winding * TWO_PI / spec.period

    def imbalance(radius):
        pull = spec.a * spec.alpha * m1 * m2 * (2.0 * radius) ** (-spec.alpha - 1.0)
        return m1 * omega**2 * radius - pull

    while imbalance(lo) > 0:
        lo *= 0.5
    while imbalance(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if imbalance(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_pair_separations(positions):
    """Separations x_i - x_j and their lengths by an explicit loop over the pairs i < j.

    The reference for loopspace.pair_separations: each pair's separation is
    one subtraction and its length the square root of the sum over
    coordinates of the squares, each pair column on its own.
    """
    n_t, n_bodies, dim = positions.shape
    pairs = [(i, j) for i in range(n_bodies) for j in range(i + 1, n_bodies)]
    diff = np.empty((n_t, len(pairs), dim), dtype=positions.dtype)
    dist = np.empty((n_t, len(pairs)), dtype=positions.dtype)
    for p, (i, j) in enumerate(pairs):
        diff[:, p] = positions[:, i] - positions[:, j]
        column = diff[:, p].copy()
        dist[:, p] = np.sqrt(np.einsum("jd,jd->j", column, column))
    return diff, dist
