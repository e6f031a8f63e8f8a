"""Dynamical symmetries, master symmetries, and the scaling-relation ledger.

All objects live on the Delaunay chart.  The level-h flow generators are
``X_h = (m k^2 / I3^{h+3}) d/dphi^3``; the master fields

    Gamma_{i,mu} = (1/(3+i)) sum_j (N_j^mu / I_j^{mu-1}) (d/dI_j + d/dphi^j)

satisfy ``[X_i, Gamma_{i,mu}] = X_{i+mu}`` (a d/dphi^3 field, which is what
the bracket actually produces) while not commuting with the flow themselves,
making them degree-one symmetry generators.  The paired potentials

    Ftilde_{i,mu} = sum_j (N_j^{mu-1}/(3+i)) (I_j^{2-mu}/(2-mu) - phi^j / I_j^{mu-1})

(the log branch replacing the power at mu = 2) reproduce the fields through
the symplectic pairing only where the angle coordinates vanish: for mu != 1
the contraction of Gamma with the symplectic form is not closed (its
differential is sum_j c_j (1 - mu) I_j^{-mu} dI_j ^ dphi^j), so no exact
potential exists off the zero-angle section.  The ledger evaluates the full
list of scaling relations generated by the recursion operator, all index
triples at a point in one call: every differentiated field is read once as
a :class:`~geometry.Jet` and every right-hand side is evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from . import duals
from .errors import ChartDomainError
from .geometry import (
    Jet,
    ScalarField,
    TensorField,
    VectorField,
    coords_of,
    dot,
    flow_pairing_residual,
    jet,
    lie_derivative,
    lie_derivative_of_jets,
    max_abs,
    max_abs_per_point,
    pair_matrix,
)
from .hierarchy import (
    ladder_energy_field,
    level_bivector,
    level_two_form,
    recursion_operator,
    weight_vector,
)
from .reduced import ReducedParams


def dynamical_symmetry(h: int, rp: ReducedParams) -> VectorField:
    """``X_h = (m k^2 / I3^{h+3}) d/dphi^3``; commutes with the flow, and
    ``X_0`` is the flow of ``H`` itself."""
    if h < 0:
        raise ValueError("index must be non-negative")
    m, k = rp.m, rp.k

    def f(c):
        if duals.anywhere(duals.value(c[2]) == 0.0):
            raise ChartDomainError("dynamical symmetry undefined at I3 = 0")
        return [0.0, 0.0, 0.0, 0.0, 0.0, m * k**2 / duals.power(c[2], h + 3)]

    return VectorField(f)


def master_symmetry_field(i: int, mu: int, rp: ReducedParams) -> VectorField:
    N = weight_vector(rp)
    scale = 1.0 / (3.0 + i)

    def f(c):
        out = [0.0] * 6
        for j in range(3):
            if mu >= 1 and duals.anywhere(duals.value(c[j]) == 0.0):
                raise ChartDomainError(f"master symmetry undefined at I{j + 1} = 0")
            comp = scale * N[j] ** mu * duals.power(c[j], 1 - mu)
            out[j] = comp
            out[3 + j] = comp
        return out

    return VectorField(f)


def master_integral(i: int, mu: int, rp: ReducedParams) -> ScalarField:
    """The potential paired with Gamma_{i,mu}; log branch at mu = 2."""
    N = weight_vector(rp)
    scale = 1.0 / (3.0 + i)

    def f(c):
        total = 0.0
        for j in range(3):
            if mu == 2:
                total = total + scale * N[j] * (duals.log(c[j]) - c[3 + j] / c[j])
            else:
                total = total + scale * N[j] ** (mu - 1) * (
                    duals.power(c[j], 2 - mu) / (2.0 - mu) - c[3 + j] / duals.power(c[j], mu - 1)
                )
        return total

    return ScalarField(f)


def pairing_residual(i: int, mu: int, rp: ReducedParams, x) -> float:
    """|iota_Gamma omega + dFtilde| at an arbitrary point (nonzero off the
    zero-angle section for mu != 1)."""
    return flow_pairing_residual(master_symmetry_field(i, mu, rp), level_two_form(0, rp),
                                 master_integral(i, mu, rp), x)


@dataclass(frozen=True)
class ConformalCoefficients:
    residual_P: float
    residual_P1: float
    residual_H: float


def conformal_coefficients(i: int, rp: ReducedParams, x) -> ConformalCoefficients:
    """Residuals at ``x``, the worst point of a batch, of the three
    Lie-derivative identities with the conformal coefficients (-1/(3+i), 0,
    -2/(3+i)): ``L_g P = a P``, ``L_g P1 = 0`` and ``L_g H = c H``."""
    g = master_symmetry_field(i, 0, rp)
    P = level_bivector(0, rp)
    P1 = level_bivector(1, rp)
    H = ladder_energy_field(0, rp)
    a = -1.0 / (3.0 + i)
    c = -2.0 / (3.0 + i)
    LP = lie_derivative(g, P, x)
    Pm = P(x)
    rP = max_abs(LP[u][v] - a * Pm[u][v] for u in range(6) for v in range(6))
    LP1 = lie_derivative(g, P1, x)
    rP1 = max_abs(LP1)
    LH = duals.value(lie_derivative(g, H, x))
    Hv = duals.value(H(x))
    rH = max_abs(LH - c * Hv)
    return ConformalCoefficients(residual_P=rP, residual_P1=rP1, residual_H=rH)


def family_flow_field(h: int, rp: ReducedParams) -> VectorField:
    m, k = rp.m, rp.k

    def f(c):
        return [0.0, 0.0, 0.0, 0.0, 0.0, m * k**2 * duals.power(c[2], h - 3)]

    return VectorField(f)


def family_two_form(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        return pair_matrix([N[j] ** (h - 1) * duals.power(c[j], h) for j in range(3)])

    return TensorField(func, "dd")


def family_energy_field(h: int, rp: ReducedParams) -> ScalarField:
    """Potential of the h-th differential: log form at h = 2, else the power
    form -m k^2 / ((2 - h) I3^{2-h}) whose level-0 value is the energy."""
    m, k = rp.m, rp.k

    def f(c):
        if h == 2:
            return m * k**2 * duals.log(c[2])
        return -m * k**2 / ((2.0 - h) * duals.power(c[2], 2 - h))

    return ScalarField(f)


def family_gamma_field(i: int, h: int, rp: ReducedParams) -> VectorField:
    """``Gamma'_{i,h} = T^h Gamma_{i,0}`` in closed form."""
    N = weight_vector(rp)
    scale = 1.0 / (3.0 + i)

    def f(c):
        out = [0.0] * 6
        for j in range(3):
            comp = scale * N[j] ** h * duals.power(c[j], h + 1)
            out[j] = comp
            out[3 + j] = comp
        return out

    return VectorField(f)


def apply_recursion_to_vector(X: VectorField, power: int, rp: ReducedParams) -> VectorField:
    """Pointwise application ``T^power X`` of the first recursion operator."""
    T = recursion_operator(1, rp)

    def f(c):
        mat = T.func(c)
        v = X.func(c)
        for _ in range(power):
            v = [dot(row, v) for row in mat]
        return v

    return VectorField(f)


# -- the scaling-relation ledger -----------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    """One relation's residual: a float at a point, an array over a batch."""

    identity: str
    residual: object


def _floats(values) -> list:
    return [duals.value(v) for v in values]


def _values(jets: list, family, coords, degrees) -> list:
    """Float values of ``family(n)`` at each degree ``n``, read off
    ``jets[n]`` where there is one; a tensor's rows one after another."""
    values = [jets[n].value if n < len(jets) else family(n)(coords) for n in degrees]
    return [_floats(v if jets[0].slots == "u" else chain(*v)) for v in values]


def _residual(Z: Jet, F: Jet, coeff: float, rhs):
    """``max |L_Z F - coeff rhs|`` over the components of the Lie derivative
    of jet ``F`` along jet ``Z``, at each point; ``rhs`` holds values, row
    after row for a tensor."""
    lhs = lie_derivative_of_jets(Z, F)
    if F.slots != "u":
        lhs = chain(*lhs)
    return max_abs_per_point([a - coeff * b for a, b in zip(lhs, rhs)])


def scaling_ledger(rp: ReducedParams, x, i_max: int, h_max: int, l_max: int) -> list:
    """Evaluate every scaling relation at a Delaunay point, or at each
    point of a :func:`~geometry.batch`, for all ``i <= i_max``,
    ``h <= h_max`` and ``l <= l_max``, in (i, h, l, relation) order.

    Relations: Lie derivatives along Gamma'_{i,h} of Gamma'_{i,l}, X'_l,
    P'_l, omega'_l and of the recursion operator, plus the pairing of the
    l-th differential with Gamma'_{i,h}.  Residuals compare against the
    closed-form right-hand sides with the displayed rational coefficients.

    Each differentiated field (Gamma'_{i,n} for n <= max(h_max, l_max), X'_l,
    P'_l, omega'_l and T_1) is read once as a :class:`~geometry.Jet`, each
    right-hand side once per degree, off a jet where there is one, and the
    derivative of T_1, which does not depend on l, once per (i, h).  Over a
    batch, that is once for all the points.
    """
    coords = coords_of(x)
    m, k = rp.m, rp.k
    degrees = range(h_max + l_max + 1)
    levels = range(l_max + 1)
    flows = [jet(family_flow_field(l, rp), coords) for l in levels]
    bivectors = [jet(level_bivector(l, rp), coords) for l in levels]
    two_forms = [jet(family_two_form(l, rp), coords) for l in levels]
    T1 = jet(recursion_operator(1, rp), coords)
    flow_rhs = _values(flows, lambda n: family_flow_field(n, rp), coords, degrees)
    bivector_rhs = _values(bivectors, lambda n: level_bivector(n, rp), coords, degrees)
    two_form_rhs = _values(two_forms, lambda n: family_two_form(n, rp), coords, degrees)
    recursion_rhs = _values([T1], lambda n: recursion_operator(1 + n, rp), coords, range(h_max + 1))
    energies = [None if n == 2 else duals.value(family_energy_field(n, rp)(coords))
                for n in degrees]
    entries = []
    for i in range(i_max + 1):
        den = 3.0 + i
        gammas = [jet(family_gamma_field(i, n, rp), coords) for n in range(max(h_max, l_max) + 1)]
        gamma_rhs = _values(gammas, lambda n: family_gamma_field(i, n, rp), coords, degrees)
        for h in range(h_max + 1):
            g = gammas[h]
            resid_T = _residual(g, T1, 1.0 / den, recursion_rhs[h])
            for l in levels:
                n = l + h
                for identity, F, coeff, rhs in (
                    ("L_Gamma'ih (Gamma'il) = ((l-h)/(3+i)) Gamma'i(l+h)",
                     gammas[l], (l - h) / den, gamma_rhs[n]),
                    ("L_Gamma'ih (X'l) = -((3-l)/(3+i)) X'(l+h)",
                     flows[l], -(3.0 - l) / den, flow_rhs[n]),
                    ("L_Gamma'ih (P'l) = ((l-h-1)/(3+i)) P'(l+h)",
                     bivectors[l], (l - h - 1.0) / den, bivector_rhs[n]),
                    ("L_Gamma'ih (omega'l) = ((l+h+1)/(3+i)) omega'(l+h)",
                     two_forms[l], (l + h + 1.0) / den, two_form_rhs[n]),
                ):
                    entries.append(LedgerEntry(identity, _residual(g, F, coeff, rhs)))
                entries.append(LedgerEntry("L_Gamma'ih (T) = (1/(3+i)) T^(1+h)", resid_T))
                # the I3-component of the l-th differential, the phi3 rate of
                # X'l, paired with Gamma'ih
                pair = duals.value(g.value[2]) * flow_rhs[l][5]
                if n == 2:
                    resid = abs(pair - m * k**2 / den)
                else:
                    coeff = -(2.0 - n) / den
                    resid = abs(pair - coeff * energies[n])
                entries.append(LedgerEntry("<dH'l, Gamma'ih> pairing", resid))
    return entries


@dataclass(frozen=True)
class CoefficientComparison:
    identity: str
    explicit: Fraction
    pattern: Fraction
    consistent: bool


def coefficient_pattern_table(i: int, h: int, l: int) -> list:
    """Exact rational comparison of the explicit ledger fractions against the
    general (alpha, beta, gamma)-pattern forms.

    With alpha = -1/(3+i), beta = 0, gamma = -2/(3+i) every pattern matches
    its explicit fraction except the flow-family one, whose displayed pattern
    gives -(l+1)/(3+i) while the bracket produces -(3-l)/(3+i); they agree
    only at l = 1.
    """
    den = Fraction(1, 3 + i)
    alpha, beta, gamma = -den, Fraction(0), -2 * den
    rows = [
        ("Gamma family", Fraction(l - h) * den, (beta - alpha) * (l - h)),
        ("flow family", -Fraction(3 - l) * den,
         beta + gamma + (l - 1) * (gamma - alpha)),
        ("bivector family", Fraction(l - h - 1) * den,
         beta + (l - h - 1) * (beta - alpha)),
        ("two-form family", Fraction(l + h + 1) * den,
         beta + (l + h + 1) * (beta - alpha)),
        ("recursion operator", den, beta - alpha),
        ("differential pairing", Fraction((h + l) - 2) * den if (h + l) != 2 else den,
         gamma + (l + h) * (beta - alpha) if (h + l) != 2 else den),
    ]
    return [
        CoefficientComparison(identity=name, explicit=e, pattern=p, consistent=e == p)
        for name, e, p in rows
    ]
