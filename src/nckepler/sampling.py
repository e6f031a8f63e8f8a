"""Seeded point and parameter samplers for the verification suites.

All sampling is reproducible: a fixed seed yields the same points on every
run, so reports are byte-identical across invocations.
"""

from __future__ import annotations

import math

import numpy as np

from .deformation import DeformationParams
from .errors import NCKeplerError, SamplingError
from .geometry import Chart, PhasePoint, ScalarField
from .kepler import deformed_radius, hamiltonian
from .reduced import ReducedParams, first_integrals, spherical_hamiltonian

DEFAULT_SEED = 42

# Consecutive rejected draws after which a rejection sampler gives up.  The
# tests and the acceptance configuration never need more than 163 draws in
# one sampler call (sample_cartesian, 100 points with an energy sign), so a
# run this long means the parameters admit (next to) no valid point.
MAX_REJECTIONS = 10_000


def _collect(n: int, sampler: str, draw) -> list:
    """``n`` accepted draws; ``draw()`` returns None for a rejected one."""
    out = []
    rejected = 0
    while len(out) < n:
        item = draw()
        if item is None:
            rejected += 1
            if rejected >= MAX_REJECTIONS:
                raise SamplingError(
                    f"{sampler}: {MAX_REJECTIONS} consecutive draws rejected after "
                    f"{len(out)} of {n} points; the parameters admit no valid sample"
                )
            continue
        rejected = 0
        out.append(item)
    return out


def sample_cartesian(
    n: int,
    seed: int = DEFAULT_SEED,
    params: DeformationParams | None = None,
    energy_sign: str | None = None,
) -> list:
    """Cartesian points with the deformed radius bounded away from zero.

    ``energy_sign`` of "minus"/"plus" rejects points whose energy does not
    have the requested sign (margin 0.05 in absolute value).
    """
    params = params or DeformationParams()
    rng = np.random.default_rng(seed)

    def draw():
        q = rng.uniform(-1.6, 1.6, size=3)
        p = rng.uniform(-1.1, 1.1, size=3)
        try:
            x = PhasePoint((*q, *p), Chart.CARTESIAN)
            if deformed_radius(x, params) < 0.35:
                return None
            if energy_sign is not None:
                H = hamiltonian(x, params)
                if energy_sign == "minus" and H > -0.05:
                    return None
                if energy_sign == "plus" and H < 0.05:
                    return None
        except NCKeplerError:
            return None
        return x

    return _collect(n, "sample_cartesian", draw)


def sample_spherical_bound(n: int, seed: int = DEFAULT_SEED, rp: ReducedParams | None = None) -> list:
    """Bound spherical states with well-separated integrals (E < 0,
    L~ > |D| > 0)."""
    rp = rp or ReducedParams()
    rng = np.random.default_rng(seed)

    def draw():
        s = PhasePoint((
            float(rng.uniform(0.7, 1.8)),             # r
            float(rng.uniform(0.7, math.pi - 0.7)),   # theta
            float(rng.uniform(0.1, 6.1)),             # phi
            float(rng.uniform(-0.35, 0.35)),          # p_r
            float(rng.uniform(-0.45, 0.45)),          # p_theta
            float(rng.uniform(0.15, 0.65)),           # p_phi
        ), Chart.SPHERICAL)
        E = spherical_hamiltonian(s, rp)
        if E > -0.08:
            return None
        _, d, lt = first_integrals(s, rp)
        if abs(d) < 0.08 or lt < abs(d) + 0.03:
            return None
        return s

    return _collect(n, "sample_spherical_bound", draw)


def sample_action_angle(n: int, seed: int = DEFAULT_SEED) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        j = rng.uniform([0.15, 0.15, 0.25], [1.1, 1.1, 1.4])
        ang = rng.uniform(0.0, 2.0 * math.pi, size=3)
        out.append(PhasePoint((*j, *ang), Chart.ACTION_ANGLE))
    return out


def sample_delaunay(n: int, seed: int = DEFAULT_SEED, zero_angles: bool = False) -> list:
    """Delaunay points ordered as bound motion requires (I3 >= I2 >= I1 > 0)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        i1 = rng.uniform(0.25, 0.85)
        i2 = rng.uniform(0.95, 1.65)
        i3 = rng.uniform(1.75, 2.55)
        ang = (0.0, 0.0, 0.0) if zero_angles else tuple(rng.uniform(0.0, 2.0 * math.pi, size=3))
        out.append(PhasePoint((i1, i2, i3, *ang), Chart.DELAUNAY))
    return out


def sample_deformations(n: int, seed: int = DEFAULT_SEED) -> list:
    """Random valid deformation parameter sets (antisymmetric, theta != 0),
    with the independent entries of alpha and lam uniform in [-0.25, 0.25]."""
    rng = np.random.default_rng(seed)

    def draw():
        a = rng.uniform(-0.25, 0.25, size=3)
        l = rng.uniform(-0.25, 0.25, size=3)
        alpha = [[0.0, a[0], a[1]], [-a[0], 0.0, a[2]], [-a[1], -a[2], 0.0]]
        lam = [[0.0, l[0], l[1]], [-l[0], 0.0, l[2]], [-l[1], -l[2], 0.0]]
        mass = float(rng.uniform(0.8, 1.5))
        k = float(rng.uniform(0.8, 1.8))
        try:
            return DeformationParams(alpha=alpha, lam=lam, mass=mass, k=k)
        except NCKeplerError:
            return None

    return _collect(n, "sample_deformations", draw)


def random_polynomial_coefficients(rng) -> tuple:
    """The coefficients ``(lin, quad)`` of a random quadratic observable for
    :func:`polynomial_field`: six linear ones, then 6x6 quadratic ones."""
    return rng.uniform(-1.0, 1.0, size=6).tolist(), rng.uniform(-0.5, 0.5, size=(6, 6)).tolist()


def polynomial_field(lin, quad) -> ScalarField:
    """The quadratic observable ``sum_i lin[i] c_i + sum_ij quad[i][j] c_i c_j``
    (smooth everywhere) for bracket tests.  A coefficient is a float, or an
    array with one value per point of a batch, which evaluates one
    observable per point in one pass."""

    def f(c):
        total = 0.0
        for i in range(6):
            total = total + lin[i] * c[i]
            for j in range(6):
                total = total + quad[i][j] * c[i] * c[j]
        return total

    return ScalarField(f)
