"""Deformed Kepler Hamiltonian, its flow, and structure-monitoring integration.

The Hamiltonian on the cartesian chart is

    H = (1/2m) sum_i (p_i + (1/2) sum_j lam[i][j] q^j)^2 - k / Y,

where ``Y = |q - (1/2) alpha p|`` is the deformed radius.  The closed-form
equations of motion, :func:`flow_rhs`, were re-derived from this Hamiltonian.
They are written once: the integrators run them, and the brackets suite
checks them against the bivector route ``P(dH, .)`` at every sampled point
through :func:`hamilton_rhs_closed_form`.  The radial coefficients carry the
coupling constant k (sigma has k/(4 Y^3) and sigma-tilde has k/Y^3), and the
excluded-diagonal double sums are exactly what remains after absorbing the
diagonal into those coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import duals
from .deformation import (
    DeformationParams,
    nc_symplectic_structures,
    transform_coordinates,
)
from .errors import SingularConfigurationError, StepFailureError
from .geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    VectorField,
    check_chart_domain,
    coords_of,
    dot,
    hamiltonian_vector_field,
)


def _radius_squared(z):
    """``Y^2 = |q'|^2`` from the primed coordinates ``z``."""
    return duals.power(z[0], 2) + duals.power(z[1], 2) + duals.power(z[2], 2)


def primed_radius(z):
    """``Y = |q'|`` from the primed coordinates ``z``; raises when the
    configuration is singular."""
    y2 = _radius_squared(z)
    if duals.anywhere(duals.value(y2) <= 0.0):
        raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
    return duals.sqrt(y2)


def primed_hamiltonian(z, params: DeformationParams):
    """Energy from the primed coordinates ``z`` (kinetic term in ``p'``).
    The radius comes first, so a singular configuration is reported before
    an overflowing momentum."""
    y = primed_radius(z)
    kinetic = (duals.power(z[3], 2) + duals.power(z[4], 2) + duals.power(z[5], 2)) / (2.0 * params.mass)
    return kinetic - params.k / y


def primed_angular_momentum(z) -> list:
    """Components of L = q' x p' from the primed coordinates ``z``."""
    q, p = z[:3], z[3:]
    return [
        q[1] * p[2] - q[2] * p[1],
        q[2] * p[0] - q[0] * p[2],
        q[0] * p[1] - q[1] * p[0],
    ]


def primed_lrl_vector(z, params: DeformationParams) -> list:
    """Components of A = p' x L - m k q' / Y from the primed coordinates ``z``."""
    q, p = z[:3], z[3:]
    L = primed_angular_momentum(z)
    y = primed_radius(z)
    mk = params.mass * params.k
    return [
        p[1] * L[2] - p[2] * L[1] - mk * q[0] / y,
        p[2] * L[0] - p[0] * L[2] - mk * q[1] / y,
        p[0] * L[1] - p[1] * L[0] - mk * q[2] / y,
    ]


def primed_observables(z, params: DeformationParams) -> list:
    """``(H, L1, L2, L3, A1, A2, A3)`` from the primed coordinates ``z``."""
    return [primed_hamiltonian(z, params)] + primed_angular_momentum(z) + primed_lrl_vector(z, params)


def deformed_radius(x, params: DeformationParams):
    """``Y = |q - (1/2) alpha p|``; raises when the configuration is singular."""
    return primed_radius(transform_coordinates(x, params))


def hamiltonian(x, params: DeformationParams):
    """Energy at a cartesian point (generic in the scalar type)."""
    return primed_hamiltonian(transform_coordinates(x, params), params)


def hamiltonian_field(params: DeformationParams) -> ScalarField:
    return ScalarField(lambda c: hamiltonian(c, params))


# Observables ``integrate`` can record, in the order ``primed_observables``
# returns them.
MONITOR_NAMES = ("H", "L1", "L2", "L3", "A1", "A2", "A3")

# Fixed-step methods ``integrate_field`` accepts.
METHODS = ("rk4", "implicit_midpoint")


def hamilton_rhs_closed_form(x, params: DeformationParams) -> list:
    """Closed-form (qdot, pdot) at one cartesian point: the integrators'
    right-hand side :func:`flow_rhs`, evaluated there."""
    return flow_rhs(params)(coords_of(x))


def hamilton_rhs_primed_form(x, params: DeformationParams) -> list:
    """The same flow written in primed coordinates.

    The momentum half matches the bracket-generated flow with the overall
    sign chosen so its commutative limit is the attractive force; the
    opposite overall sign fails that limit.
    """
    coords = coords_of(x)
    primed = transform_coordinates(coords, params)
    qp, pp = primed[:3], primed[3:]
    y = duals.value(primed_radius(primed))
    a, l = params.alpha, params.lam
    th = params.theta
    m, k = params.mass, params.k
    ky3 = k / duals.power(y, 3)
    qdot = [(pp[i] / m + 0.5 * ky3 * dot(a[i], qp)) / th[i] for i in range(3)]
    pdot = [(0.5 / m * dot(l[i], pp) - ky3 * qp[i]) / th[i] for i in range(3)]
    return qdot + pdot


def hamiltonian_vector_field_nc(params: DeformationParams) -> VectorField:
    """The flow field built from the bivector route ``P(dH, .)``."""
    _, bivector = nc_symplectic_structures(params)
    return hamiltonian_vector_field(bivector, hamiltonian_field(params))


def flow_rhs(params: DeformationParams) -> Callable[[Sequence[float]], list]:
    """Closed-form right-hand side for the integrators, built once per params.

    In the commutative limit it is the plain Kepler force.  Otherwise it is
    ``qdot_mu = (sigma_mu p_mu + sum_s R_mu,s q^s + (1/4) ky3 sum_(nu != mu)
    (alpha^T alpha)_mu,nu p_nu) / theta_mu`` and ``pdot_mu = -(sigma-tilde_mu
    q^mu - sum_s R_mu,s p_s + (1/4m) sum_(nu != mu) (lam^T lam)_mu,nu q^nu) /
    theta_mu``, with ``ky3 = k / Y^3``, ``sigma = 1/m + (1/4) ky3 diag(alpha^T
    alpha)``, ``sigma-tilde = ky3 + (1/4m) diag(lam^T lam)`` and ``R = lam /
    2m - (1/2) ky3 alpha^T``.  Every alpha/lambda-only subexpression is
    computed here instead of on each call, and every sum is a left fold from
    ``0.0``, so the result does not depend on how ``sum()`` rounds.
    """
    m, k = params.mass, params.k
    if params.is_commutative:

        def rhs(c):
            q1, q2, q3, p1, p2, p3 = c
            r2 = q1 * q1 + q2 * q2 + q3 * q3
            r3 = r2 * math.sqrt(r2)
            if r3 <= 0.0:  # also when r^3 underflows to 0, below r of about 1.4e-108
                raise SingularConfigurationError("radius vanished")
            f = -k / r3
            return [p1 / m, p2 / m, p3 / m, f * q1, f * q2, f * q3]

        return rhs

    a, l = params.alpha, params.lam
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    th1, th2, th3 = params.theta
    inv_m = 1.0 / m
    # sigma = 1/m + (0.25 ky3) sa, sigma-tilde = ky3 + cl, R = rl - ra ky3
    sa1, sa2, sa3 = (0.0 + a[0][mu] ** 2 + a[1][mu] ** 2 + a[2][mu] ** 2 for mu in range(3))
    cl1, cl2, cl3 = (0.25 / m * (0.0 + l[0][mu] ** 2 + l[1][mu] ** 2 + l[2][mu] ** 2) for mu in range(3))
    (rl11, rl12, rl13), (rl21, rl22, rl23), (rl31, rl32, rl33) = (
        [l[mu][s] / (2.0 * m) for s in range(3)] for mu in range(3)
    )
    (ra11, ra12, ra13), (ra21, ra22, ra23), (ra31, ra32, ra33) = (
        [a[s][mu] * 0.5 for s in range(3)] for mu in range(3)
    )
    # off-diagonal couplings (0.25 ky3) saa[mu][nu] and cll[mu][nu], nu != mu
    pairs = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
    a_cols, l_cols = tuple(zip(*a)), tuple(zip(*l))
    saa12, saa13, saa21, saa23, saa31, saa32 = (dot(a_cols[mu], a_cols[nu]) for mu, nu in pairs)
    cll12, cll13, cll21, cll23, cll31, cll32 = (
        0.25 / m * dot(l_cols[mu], l_cols[nu]) for mu, nu in pairs
    )

    def rhs(c):
        q1, q2, q3, p1, p2, p3 = c
        x1 = q1 - 0.5 * (0.0 + a11 * p1 + a12 * p2 + a13 * p3)
        x2 = q2 - 0.5 * (0.0 + a21 * p1 + a22 * p2 + a23 * p3)
        x3 = q3 - 0.5 * (0.0 + a31 * p1 + a32 * p2 + a33 * p3)
        y2 = x1**2 + x2**2 + x3**2
        y3 = math.sqrt(y2) ** 3
        if y3 <= 0.0:  # also when Y^3 underflows to 0, below Y of about 1.4e-108
            raise SingularConfigurationError("deformed radius Y vanished (q = alpha p / 2)")
        ky3 = k / y3
        k4 = 0.25 * ky3
        r11, r12, r13 = rl11 - ra11 * ky3, rl12 - ra12 * ky3, rl13 - ra13 * ky3
        r21, r22, r23 = rl21 - ra21 * ky3, rl22 - ra22 * ky3, rl23 - ra23 * ky3
        r31, r32, r33 = rl31 - ra31 * ky3, rl32 - ra32 * ky3, rl33 - ra33 * ky3
        dq1 = (inv_m + k4 * sa1) * p1 + (0.0 + r11 * q1 + r12 * q2 + r13 * q3)
        dq1 += k4 * saa12 * p2
        dq1 += k4 * saa13 * p3
        dq2 = (inv_m + k4 * sa2) * p2 + (0.0 + r21 * q1 + r22 * q2 + r23 * q3)
        dq2 += k4 * saa21 * p1
        dq2 += k4 * saa23 * p3
        dq3 = (inv_m + k4 * sa3) * p3 + (0.0 + r31 * q1 + r32 * q2 + r33 * q3)
        dq3 += k4 * saa31 * p1
        dq3 += k4 * saa32 * p2
        dp1 = (ky3 + cl1) * q1 - (0.0 + r11 * p1 + r12 * p2 + r13 * p3)
        dp1 += cll12 * q2
        dp1 += cll13 * q3
        dp2 = (ky3 + cl2) * q2 - (0.0 + r21 * p1 + r22 * p2 + r23 * p3)
        dp2 += cll21 * q1
        dp2 += cll23 * q3
        dp3 = (ky3 + cl3) * q3 - (0.0 + r31 * p1 + r32 * p2 + r33 * p3)
        dp3 += cll31 * q1
        dp3 += cll32 * q2
        return [dq1 / th1, dq2 / th2, dq3 / th3, -dp1 / th1, -dp2 / th2, -dp3 / th3]

    return rhs


@dataclass
class Trajectory:
    """Fixed-step trajectory: one float64 row of ``table`` per state, in CSV
    column order: ``t``, the six coordinates in the chart of the run's initial
    point and a value per name of ``monitor_names``, of which ``times``,
    ``states`` and ``monitors`` (a row per name) are views."""

    table: np.ndarray
    monitor_names: list
    termination_reason: str | None = None
    # largest per-step energy change over 1 + |E0|, the collision
    # detector's scale; the step that stopped a run counts
    max_energy_jump: float = 0.0

    @property
    def completed(self) -> bool:
        return self.termination_reason is None

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def states(self) -> np.ndarray:
        return self.table[:, 1:7]

    @property
    def monitors(self) -> np.ndarray:
        return self.table[:, 7:].T

    def monitor_series(self, name: str) -> np.ndarray:
        return self.monitors[self.monitor_names.index(name)]

    def drift(self, name: str) -> float:
        """Largest deviation of monitor ``name`` from its initial value
        ``ref``, relative to ``|ref|`` for ``H`` (1.0 when ``ref == 0``) and
        to ``max(|ref|, 1)`` for every other monitor."""
        series = self.monitor_series(name)
        ref = float(series[0])
        scale = (abs(ref) or 1.0) if name == "H" else max(abs(ref), 1.0)
        with np.errstate(all="ignore"):  # inf - inf is NaN, as in Python
            deviations = np.abs(series - ref)
        return max(deviations.tolist()) / scale

    def to_csv(self, fh) -> None:
        """Write the trajectory to the text file ``fh`` as CSV: one header
        line, then one line per row of ``table``, each value as ``%.17g``.
        The rows are formatted ``_CSV_ROWS`` at a time by
        :func:`_format_rows` and streamed, so no copy of the whole text is
        held in memory."""
        names = ("t", "q1", "q2", "q3", "p1", "p2", "p3", *self.monitor_names)
        fh.write(",".join(names) + "\n")
        for start in range(0, len(self.table), _CSV_ROWS):
            fh.write(_format_rows(self.table[start:start + _CSV_ROWS]))


# Rows of a trajectory that ``Trajectory.to_csv`` formats in one call: at 8
# values a row a call's traced peak is about 0.55 MiB, and 768 to 2 048 rows
# were no faster.
_CSV_ROWS = 512

# ``_decimal_digits`` scales by 10^j for |j| <= _POW10_SPAN, and trusts a
# rounding whose scaled value lies this far or farther from a tie.
_POW10_SPAN = 255
_TIE_MARGIN = 1e-9
# Dekker's splitter for float64, 2^27 + 1.
_SPLIT = 134217729.0


@functools.cache
def _csv_tables() -> tuple:
    """``(powers, digits, zeros)``, built on first use.  Column ``j +
    _POW10_SPAN`` of ``powers`` holds 10^j as the double-double ``hi +
    lo``, each part the correctly rounded float, and ``hi`` split in halves
    ``hh + hl`` for Dekker's product; int to float and int / int
    conversions round correctly, so no exact rational type is needed.
    Entry ``i`` of ``digits`` holds the four ASCII digits of ``i`` as one
    uint32, and entry ``i`` of ``zeros`` their trailing zeros."""
    rows = []
    for j in range(-_POW10_SPAN, _POW10_SPAN + 1):
        if j >= 0:
            hi = float(10**j)
            lo = float(10**j - int(hi))
        else:
            hi = 1 / 10**-j
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-j) / (den * 10**-j)
        c = _SPLIT * hi
        hh = c - (c - hi)
        rows.append((hi, lo, hh, hi - hh))
    ascii_digits = (np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
                    % 10 + ord("0")).astype(np.uint8)
    zeros = np.cumprod(ascii_digits[:, ::-1] == ord("0"), axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    return np.array(rows).T.copy(), ascii_digits.view(np.uint32).ravel(), zeros


def _decimal_digits(v: np.ndarray) -> tuple:
    """``(exact, e10, n)`` for the float64 values ``v``: where ``exact``,
    ``n`` (int64, in [10^16, 10^17)) holds the 17 significant digits of
    ``'%.17g' % v`` and ``e10`` its decimal exponent.  Elsewhere the digits
    are not certain and ``v`` must take ``'%.17g'`` itself: zeros,
    subnormals and non-finite values, exponents beyond the power table, a
    scaled value within ``_TIE_MARGIN`` of a rounding tie, one outside
    [10^16, 10^17), and one that rounds up to 10^17.

    ``|v| 10^(16 - e10)``, with ``e10 = floor(log10 |v|)``, is Dekker's
    exact product with the table's ``hi`` plus ``|v| lo``: its error is
    under 1e-14, far inside the tie margin, so rounding it to the nearest
    integer gives the digits of the correctly rounded conversion ``%.17g``
    makes (Gay's ``dtoa``), as in Loitsch's Grisu3 (PLDI 2010).  ``log10``
    can be one off next to a power of ten; the range test flags those
    values."""
    hi_t, lo_t, hh_t, hl_t = _csv_tables()[0]
    a = np.abs(v)
    exact = a > 0.0  # False at zeros and NaN; subnormals lie beyond the table
    e10 = np.floor(np.log10(np.where(exact, a, 1.0)))
    exact &= np.abs(16.0 - e10) <= _POW10_SPAN  # False at infinities
    a = np.where(exact, a, 1.0)
    e10 = np.where(exact, e10, 0.0).astype(np.int16)
    row = _POW10_SPAN + 16 - e10
    hi, hh, hl = hi_t[row], hh_t[row], hl_t[row]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    r = (al * hl - (((p - ah * hh) - al * hh) - ah * hl)) + a * lo_t[row]
    # the scaled value is p + r; p is an integer wherever it is in range
    exact &= ((p - 1e16) + r >= 0.0) & ((p - 1e17) + r < 0.0)
    exact &= np.abs(r - np.rint(r)) <= 0.5 - _TIE_MARGIN
    n = np.where(exact, p, 1e16).astype(np.int64) + np.rint(r).astype(np.int64)
    exact &= n < 10**17  # a log10 one too low just below a power of ten
    return exact, e10, n


# The layout group of a value: ``e10 + 4`` for the fixed form (-4 <= e10 <=
# 16), then one group for the exponent form and one for the values
# ``'%.17g'`` formats itself.
_EXP_GROUP = 21
_FALLBACK_GROUP = 22
# The uint32 that keeps the first c of its four bytes, at index c, and the
# digit index of each quad's first byte.
_QUAD_MASKS = np.frombuffer(b"".join(bytes([255] * c + [0] * (4 - c)) for c in range(5)), np.uint32)
_QUAD_STARTS = np.array([-3, 1, 5, 9, 13], np.int8)


def _format_rows(table: np.ndarray) -> str:
    """The CSV lines of ``table``, one per row, each value exactly as
    ``'%.17g'`` writes it.

    Each value gets a cell of 25 bytes: up to 24 bytes of text and its
    separator.  The cells are laid out sorted by layout group, so each
    group takes slice copies (:func:`_sorted_cells`), and put back in
    order.  Bytes a value leaves unused stay 0, and one compaction drops
    them."""
    v = table.ravel()
    exact, e10, n = _decimal_digits(v)
    group = np.where((e10 >= -4) & (e10 <= 16), e10 + 4, _EXP_GROUP).astype(np.uint8)
    group[~exact] = _FALLBACK_GROUP
    order = np.argsort(group, kind="stable")
    bounds = np.cumsum(np.bincount(group, minlength=_FALLBACK_GROUP + 1)).tolist()
    v, e10, n = v[order], e10[order], n[order]
    laid_out = _sorted_cells(v, e10, n, bounds)
    cells = np.empty_like(laid_out)
    cells[order] = laid_out
    cells[:, 24] = ord(",")
    cells.reshape(len(table), -1)[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _sorted_cells(v: np.ndarray, e10: np.ndarray, n: np.ndarray, bounds: list) -> np.ndarray:
    """The 24 text bytes of each value of ``v``, sorted by layout group,
    group ``g`` ending at ``bounds[g]``: a sign, then the digits of
    :func:`_ascii_digits` with the point and exponent of the group, or the
    text of ``'%.17g'`` for the values whose digits are not certain."""
    four = _csv_tables()[1]
    d, point = _ascii_digits(n, e10)
    cells = np.zeros((v.size, 25), np.uint8)
    cells[:, 0] = np.where(v < 0.0, ord("-"), 0)
    for g, (start, stop) in enumerate(zip([0] + bounds, bounds)):
        if start == stop:
            continue
        s = slice(start, stop)
        if g < 4:  # e10 = g - 4 < 0: 0.000 then the digits
            cells[s, 1:6 - g] = np.frombuffer(b"0.000", np.uint8)[:5 - g]
            cells[s, 6 - g:23 - g] = d[s]
        elif g < _EXP_GROUP:  # e10 = g - 4 >= 0: the point follows digit e10
            cells[s, 1:g - 2] = d[s, :g - 3]
            cells[s, g - 2] = point[s]
            cells[s, g - 1:19] = d[s, g - 3:]
        elif g == _EXP_GROUP:
            cells[s, 1] = d[s, 0]
            cells[s, 2] = point[s]
            cells[s, 3:19] = d[s, 1:]
            cells[s, 19] = ord("e")
            cells[s, 20] = np.where(e10[s] < 0, ord("-"), ord("+"))
            mag = np.abs(e10[s])
            cells[s, 21:24] = four[mag].view(np.uint8).reshape(-1, 4)[:, 1:]
            cells[s, 21] *= mag >= 100
        else:
            for i, x in zip(range(start, stop), v[s].tolist()):
                text = ("%.17g" % x).encode()
                cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _ascii_digits(n: np.ndarray, e10: np.ndarray) -> tuple:
    """``(digits, point)`` of the 17-digit integers ``n`` with decimal
    exponents ``e10``: a row of 17 ASCII digits each, in which the
    trailing zeros past the digits before the point are 0, and the point
    byte, ``.`` where digits follow the point and 0 where none do.

    The digits come four at a time from the digit table, as five uint32
    per row whose first three bytes are dropped: 1 + 4 x 4 digits."""
    _, four, zeros = _csv_tables()
    high, low = np.divmod(n, 10**8)
    quads = np.empty((n.size, 5), np.uint32)
    tz = np.zeros(n.size, np.int8)  # trailing zeros of the digits so far
    for k, (part, div) in enumerate(((high, 10**8), (high, 10**4), (high, 1), (low, 10**4), (low, 1))):
        q = part // div % 10**4
        quads[:, k] = four[q]
        tz = zeros[q] + (q == 0) * tz
    whole = np.where((e10 >= 0) & (e10 <= 16), e10 + 1, 1)
    kept = np.maximum(17 - tz, whole)
    quads &= _QUAD_MASKS[np.clip(kept[:, None] - _QUAD_STARTS, 0, 4)]
    point = np.where(kept > whole, ord("."), 0).astype(np.uint8)
    return quads.view(np.uint8)[:, 3:], point


# The steppers are generators of the successive states from ``c``, unrolled
# over the six coordinates.  Each keeps the operations and their order of
# the per-coordinate loop form, so every state is bit-identical to it: ``h``
# and ``w`` are the left-hand products ``0.5 * dt`` and ``dt / 6.0`` of that
# form.


def _rk4_states(rhs, c, dt):
    h = 0.5 * dt
    w = dt / 6.0
    while True:
        c1, c2, c3, c4, c5, c6 = c
        a1, a2, a3, a4, a5, a6 = rhs(c)
        b1, b2, b3, b4, b5, b6 = rhs((c1 + h * a1, c2 + h * a2, c3 + h * a3,
                                      c4 + h * a4, c5 + h * a5, c6 + h * a6))
        d1, d2, d3, d4, d5, d6 = rhs((c1 + h * b1, c2 + h * b2, c3 + h * b3,
                                      c4 + h * b4, c5 + h * b5, c6 + h * b6))
        e1, e2, e3, e4, e5, e6 = rhs((c1 + dt * d1, c2 + dt * d2, c3 + dt * d3,
                                      c4 + dt * d4, c5 + dt * d5, c6 + dt * d6))
        c = (
            c1 + w * (a1 + 2.0 * b1 + 2.0 * d1 + e1),
            c2 + w * (a2 + 2.0 * b2 + 2.0 * d2 + e2),
            c3 + w * (a3 + 2.0 * b3 + 2.0 * d3 + e3),
            c4 + w * (a4 + 2.0 * b4 + 2.0 * d4 + e4),
            c5 + w * (a5 + 2.0 * b5 + 2.0 * d5 + e5),
            c6 + w * (a6 + 2.0 * b6 + 2.0 * d6 + e6),
        )
        yield c


# The implicit midpoint stage iteration's stopping test and iteration cap.
_STAGE_TOL = 1e-12
_STAGE_MAX_ITER = 50


def _implicit_midpoint_states(rhs, c, dt):
    """Implicit midpoint steps: a fixed-point iteration on each step's
    midpoint stage until successive stages differ by less than
    ``_STAGE_TOL`` in every coordinate, else :class:`StepFailureError`.

    The iteration starts from the quartic extrapolation ``5 (s - v) - 10 (t
    - u) + w`` of the last five converged stages ``s``, ``t``, ``u``, ``v``
    and ``w``, latest first (Hairer, Lubich & Wanner, *Geometric Numerical
    Integration*, VIII.6).  The history starts as five copies of
    ``rhs(c)``, so the first step starts from ``rhs(c)``.  Past the fifth
    step the start is within O(dt^5) of the stage, so on a smooth orbit at
    ``dt = 1e-3`` one rhs call ends the step.  Only the start differs from
    an iteration from ``rhs(c)``: the stopping test, the iteration cap and
    the failure are the same.

    ``max`` keeps its first argument when that is NaN and skips a later
    NaN: a NaN in the first stage coordinate fails the iteration, while one
    elsewhere can end the step in a non-finite state, which
    ``integrate_field`` reports."""
    c1, c2, c3, c4, c5, c6 = c
    h = 0.5 * dt
    tol, max_iter = _STAGE_TOL, _STAGE_MAX_ITER
    s1, s2, s3, s4, s5, s6 = t1, t2, t3, t4, t5, t6 = u1, u2, u3, u4, u5, u6 = rhs(c)
    v1, v2, v3, v4, v5, v6 = w1, w2, w3, w4, w5, w6 = s1, s2, s3, s4, s5, s6
    while True:
        for _ in range(max_iter):
            n1, n2, n3, n4, n5, n6 = rhs((c1 + h * s1, c2 + h * s2, c3 + h * s3,
                                          c4 + h * s4, c5 + h * s5, c6 + h * s6))
            resid = max(abs(n1 - s1), abs(n2 - s2), abs(n3 - s3),
                        abs(n4 - s4), abs(n5 - s5), abs(n6 - s6))
            s1, s2, s3, s4, s5, s6 = n1, n2, n3, n4, n5, n6
            if resid < tol:
                break
        else:
            raise StepFailureError(
                f"implicit midpoint stage iteration did not reach {tol} in {max_iter} iterations"
            )
        c1, c2, c3, c4, c5, c6 = (c1 + dt * s1, c2 + dt * s2, c3 + dt * s3,
                                  c4 + dt * s4, c5 + dt * s5, c6 + dt * s6)
        yield c1, c2, c3, c4, c5, c6
        s1, t1, u1, v1, w1 = 5.0 * (s1 - v1) - 10.0 * (t1 - u1) + w1, s1, t1, u1, v1
        s2, t2, u2, v2, w2 = 5.0 * (s2 - v2) - 10.0 * (t2 - u2) + w2, s2, t2, u2, v2
        s3, t3, u3, v3, w3 = 5.0 * (s3 - v3) - 10.0 * (t3 - u3) + w3, s3, t3, u3, v3
        s4, t4, u4, v4, w4 = 5.0 * (s4 - v4) - 10.0 * (t4 - u4) + w4, s4, t4, u4, v4
        s5, t5, u5, v5, w5 = 5.0 * (s5 - v5) - 10.0 * (t5 - u5) + w5, s5, t5, u5, v5
        s6, t6, u6, v6, w6 = 5.0 * (s6 - v6) - 10.0 * (t6 - u6) + w6, s6, t6, u6, v6


# States ``integrate_field`` steps before it observes them in one hook call.
_BLOCK = 1024


def _reason(err: Exception):
    """The termination reason for an error of a step or the hook, or the
    error itself when it fails the run."""
    if isinstance(err, SingularConfigurationError):
        return f"singular configuration: {err}"
    if isinstance(err, StepFailureError):
        return f"step failure: {err}"
    if isinstance(err, OverflowError):
        return "overflow: the state left the float range"
    return err


def _observe_block(observe, states: np.ndarray, n_monitors: int) -> tuple:
    """``(stop, energy, columns)`` of ``observe`` over ``states``, finite
    states one per row, ``stop`` being None or ``(index, reason or error)``.
    When the array pass raises, each state is observed alone on its floats,
    up to the first that stops or raises."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return observe(tuple(np.ascontiguousarray(states.T)))
    except Exception:  # the state that raised raises again below
        pass
    stop, energies, rows = None, [], []
    for i, c in enumerate(states.tolist()):
        try:
            state_stop, energy, row = observe(c)
        except Exception as err:
            stop = (i, _reason(err))
            break
        if state_stop is not None:
            stop = (i, state_stop[1])
            break
        energies.append(energy)
        rows.append(row)
    return stop, energies, np.array(rows, dtype=float).reshape(len(rows), n_monitors).T


def integrate_field(
    x0: PhasePoint,
    rhs: Callable[[Sequence[float]], list],
    dt: float,
    n_steps: int,
    method: str = "rk4",
    *,
    observe: Callable,
    monitor_names: Sequence[str] = (),
) -> Trajectory:
    """Fixed-step integration with singularity guards.

    ``rhs`` takes and returns six coordinates in ``x0``'s chart.  One
    stepper generator makes every state of the run, so the implicit
    midpoint method's stage history, from which it starts each stage
    iteration, carries across blocks.  Each block's rows of the table are
    built once and joined at the end, so nothing is sized from ``n_steps``.

    ``observe`` gets the six floats of ``x0``, then six float64 arrays over
    each block of up to ``_BLOCK`` stepped states, and returns ``(stop,
    energy, columns)``: ``stop`` is None or ``(index, reason)`` for the first
    state that ends the run (ignored at ``x0``); ``energy`` feeds the
    collision detector (None turns it off) and ``columns`` holds one array
    per monitor name, both covering the states before ``index``.  The hook
    must treat each state alone: a block whose pass raises, floating-point
    exceptions included, is observed again state by state on floats.

    The run is cut at the first state that ends it, and the later steps of
    its block are dropped.  Reasons: the hook's stop, a non-finite state, a
    singular configuration, stage failure or overflow raised by a step or
    the hook, or a one-step energy jump over 1e-2 of ``1 + |E0|`` (the
    collision detector).  Other errors, and a spherical state with r <= 0 or
    theta outside (0, pi) (:class:`ChartDomainError`), propagate once the
    states before them have passed.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    stepper = _rk4_states if method == "rk4" else _implicit_midpoint_states

    chart = x0.chart
    c = x0.coords
    _, e_prev, row = observe(c)
    tables = [np.array([[0.0, *c, *row]], dtype=float)]
    e_scale = 1.0 + abs(e_prev) if e_prev is not None else None
    stepped = stepper(rhs, c, dt)
    step, outcome, max_jump = 0, None, 0.0
    while step < n_steps and outcome is None:
        block = []
        try:
            for c in itertools.islice(stepped, min(_BLOCK, n_steps - step)):
                block.append(c)
        except Exception as err:  # raised or reported once the states before it pass
            outcome = _reason(err)
        # ``end`` is the first state that ends the run, by ``outcome``
        end = len(block)
        states = np.fromiter(itertools.chain.from_iterable(block), float, 6 * end).reshape(end, 6)
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            end = int(np.argmin(finite))
            outcome = "singular configuration: state left the chart (non-finite)"
        stop, energy, columns = None, None, ()
        if end:
            stop, energy, columns = _observe_block(observe, states[:end], len(row))
        if stop is not None:
            end, outcome = stop
        if e_scale is not None and end:
            e = np.asarray(energy[:end], dtype=float)
            with np.errstate(all="ignore"):  # inf - inf is NaN, as in Python
                jumps = np.abs(e - np.concatenate(([e_prev], e[:-1])))
                exploded = np.flatnonzero(~np.isfinite(e) | (jumps > 1e-2 * e_scale))
                if exploded.size:
                    end = int(exploded[0])
                    outcome = "singular configuration: energy step error exploded (collision)"
                    jumps = jumps[:end + 1]
                max_jump = max([max_jump] + (jumps / e_scale).tolist())
            e_prev = e[-1]
        if chart is Chart.SPHERICAL:  # the states check_chart_domain rejects
            r, theta = states[:end, 0], states[:end, 1]
            outside = np.flatnonzero((r <= 0.0) | ~((theta > 0.0) & (theta < math.pi)))
            if outside.size:
                check_chart_domain(states[outside[0]].tolist(), chart)
        if end:
            tables.append(np.column_stack([np.arange(step + 1, step + end + 1) * dt, states[:end],
                                           *(col[:end] for col in columns)]))
        if isinstance(outcome, Exception):
            raise outcome
        step += end
    return Trajectory(np.concatenate(tables), list(monitor_names), outcome, max_jump)


def integrate(
    x0: PhasePoint,
    params: DeformationParams,
    dt: float,
    n_steps: int,
    method: str = "rk4",
    monitors: Sequence[str] = (),
) -> Trajectory:
    """Integrate the deformed Kepler flow from a cartesian point.

    ``monitors`` are names from :data:`MONITOR_NAMES`.  One pass of
    :func:`transform_coordinates` and :func:`primed_observables` over a
    block's arrays feeds the radius guard, the energy detector and every
    monitor.  Aborts with a singularity reason when the deformed radius
    falls below 1e-9 of its initial value or a step loses energy accuracy
    (collision).
    """
    unknown = [name for name in monitors if name not in MONITOR_NAMES]
    if unknown:
        raise ValueError(f"unknown monitors {unknown}; choose from {MONITOR_NAMES}")
    picks = [MONITOR_NAMES.index(name) for name in monitors]
    vectors = any(i > 0 for i in picks)
    floor = 1e-9 * primed_radius(transform_coordinates(x0.coords, params))
    floor2 = floor * floor

    def observe(cols):
        z = transform_coordinates(cols, params)
        values = primed_observables(z, params) if vectors else [primed_hamiltonian(z, params)]
        low = np.flatnonzero(_radius_squared(z) < floor2)
        stop = None
        if low.size:
            stop = (int(low[0]), "singular configuration: deformed radius below 1e-9 of its initial value")
        return stop, values[0], [values[i] for i in picks]

    return integrate_field(
        x0,
        flow_rhs(params),
        dt,
        n_steps,
        method=method,
        observe=observe,
        monitor_names=monitors,
    )
