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
list of scaling relations generated by the recursion operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import duals
from .errors import ChartDomainError
from .geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    TensorField,
    VectorField,
    gradient,
    interior_product,
    lie_derivative,
    max_abs,
)
from .hierarchy import (
    level_bivector,
    level_two_form,
    recursion_operator,
    weight_vector,
)
from .reduced import ReducedParams


def dynamical_symmetry(h: int, rp: ReducedParams) -> VectorField:
    """``X_h = (m k^2 / I3^{h+3}) d/dphi^3``; commutes with the flow."""
    if h < 0:
        raise ValueError("index must be non-negative")
    m, k = rp.m, rp.k

    def f(c):
        if duals.value(c[2]) == 0.0:
            raise ChartDomainError("dynamical symmetry undefined at I3 = 0")
        return [0.0, 0.0, 0.0, 0.0, 0.0, m * k**2 / c[2] ** (h + 3)]

    return VectorField(Chart.DELAUNAY, f, name=f"X{h}")


def master_symmetry_field(i: int, mu: int, rp: ReducedParams) -> VectorField:
    N = weight_vector(rp)
    scale = 1.0 / (3.0 + i)

    def f(c):
        out = [0.0] * 6
        for j in range(3):
            if mu >= 1 and duals.value(c[j]) == 0.0:
                raise ChartDomainError(f"master symmetry undefined at I{j + 1} = 0")
            comp = scale * N[j] ** mu * c[j] ** (1 - mu)
            out[j] = comp
            out[3 + j] = comp
        return out

    return VectorField(Chart.DELAUNAY, f, name=f"Gamma{i}{mu}")


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
                    c[j] ** (2 - mu) / (2.0 - mu) - c[3 + j] / c[j] ** (mu - 1)
                )
        return total

    return ScalarField(Chart.DELAUNAY, f, name=f"Ftilde{i}{mu}")


@dataclass(frozen=True)
class MasterFamily:
    i: int
    mu: int
    field: VectorField
    integral: ScalarField
    pairing_residual_on_section: float


def master_family(i: int, mu: int, rp: ReducedParams, probe_actions=(0.7, 1.3, 2.1)) -> MasterFamily:
    """Build the field/potential pair, verifying the pairing on the section
    where the angles vanish (the identity's exact locus for mu != 1)."""
    field = master_symmetry_field(i, mu, rp)
    integral = master_integral(i, mu, rp)
    omega = level_two_form(0, rp)
    pt = PhasePoint((*probe_actions, 0.0, 0.0, 0.0), Chart.DELAUNAY)
    ip = interior_product(field, omega, pt)
    dF = gradient(integral, pt)
    resid = max(abs(duals.value(ip[a]) + duals.value(dF[a])) for a in range(6))
    return MasterFamily(i=i, mu=mu, field=field, integral=integral,
                        pairing_residual_on_section=resid)


def pairing_residual(i: int, mu: int, rp: ReducedParams, x) -> float:
    """|iota_Gamma omega + dFtilde| at an arbitrary point (nonzero off the
    zero-angle section for mu != 1)."""
    field = master_symmetry_field(i, mu, rp)
    integral = master_integral(i, mu, rp)
    omega = level_two_form(0, rp)
    ip = interior_product(field, omega, x)
    dF = gradient(integral, x)
    return max(abs(duals.value(ip[a]) + duals.value(dF[a])) for a in range(6))


@dataclass(frozen=True)
class ConformalCoefficients:
    alpha: float
    beta: float
    gamma: float
    residual_P: float
    residual_P1: float
    residual_H: float


def conformal_coefficients(i: int, rp: ReducedParams, x) -> ConformalCoefficients:
    """(-1/(3+i), 0, -2/(3+i)) with all three Lie-derivative identities
    verified numerically at ``x``."""
    g = master_symmetry_field(i, 0, rp)
    P = level_bivector(0, rp)
    P1 = level_bivector(1, rp)
    H = _delaunay_energy(rp)
    a = -1.0 / (3.0 + i)
    b = 0.0
    c = -2.0 / (3.0 + i)
    LP = lie_derivative(g, P, x)
    Pm = P(x)
    rP = max(
        abs(LP[u][v] - a * Pm[u][v]) for u in range(6) for v in range(6)
    )
    LP1 = lie_derivative(g, P1, x)
    rP1 = max_abs(LP1)
    LH = duals.value(lie_derivative(g, H, x))
    Hv = duals.value(H(x))
    rH = abs(LH - c * Hv)
    return ConformalCoefficients(alpha=a, beta=b, gamma=c, residual_P=rP,
                                 residual_P1=rP1, residual_H=rH)


def _delaunay_energy(rp: ReducedParams) -> ScalarField:
    m, k = rp.m, rp.k
    return ScalarField(Chart.DELAUNAY, lambda c: -m * k**2 / (2.0 * c[2] ** 2), name="H")


@dataclass(frozen=True)
class RecursionFamily:
    h: int
    flow: VectorField          # X'_h
    bivector: TensorField      # P'_h
    two_form: TensorField      # omega'_h
    energy: ScalarField        # H'_h (log form at h = 2)


def family_flow_field(h: int, rp: ReducedParams) -> VectorField:
    m, k = rp.m, rp.k

    def f(c):
        return [0.0, 0.0, 0.0, 0.0, 0.0, m * k**2 * c[2] ** (h - 3)]

    return VectorField(Chart.DELAUNAY, f, name=f"X'{h}")


def family_two_form(h: int, rp: ReducedParams) -> TensorField:
    N = weight_vector(rp)

    def func(c):
        mat = [[0.0] * 6 for _ in range(6)]
        for j in range(3):
            w = N[j] ** (h - 1) * c[j] ** h
            mat[j][3 + j] = w
            mat[3 + j][j] = -w
        return mat

    return TensorField(Chart.DELAUNAY, func, "dd", name=f"omega'{h}")


def family_energy_field(h: int, rp: ReducedParams) -> ScalarField:
    """Potential of the h-th differential: log form at h = 2, else the power
    form -m k^2 / ((2 - h) I3^{2-h}) whose level-0 value is the energy."""
    m, k = rp.m, rp.k

    def f(c):
        if h == 2:
            return m * k**2 * duals.log(c[2])
        return -m * k**2 / ((2.0 - h) * c[2] ** (2 - h))

    return ScalarField(Chart.DELAUNAY, f, name=f"H'{h}")


def family_gamma_field(i: int, h: int, rp: ReducedParams) -> VectorField:
    """``Gamma'_{i,h} = T^h Gamma_{i,0}`` in closed form."""
    N = weight_vector(rp)
    scale = 1.0 / (3.0 + i)

    def f(c):
        out = [0.0] * 6
        for j in range(3):
            comp = scale * N[j] ** h * c[j] ** (h + 1)
            out[j] = comp
            out[3 + j] = comp
        return out

    return VectorField(Chart.DELAUNAY, f, name=f"Gamma'{i}{h}")


def recursion_family(h: int, rp: ReducedParams) -> RecursionFamily:
    if h < 0:
        raise ValueError("index must be non-negative")
    return RecursionFamily(
        h=h,
        flow=family_flow_field(h, rp),
        bivector=level_bivector(h, rp),
        two_form=family_two_form(h, rp),
        energy=family_energy_field(h, rp),
    )


def apply_recursion_to_vector(X: VectorField, power: int, rp: ReducedParams) -> VectorField:
    """Pointwise application ``T^power X`` of the first recursion operator."""
    T = recursion_operator(1, rp)

    def f(c):
        mat = T.func(c)
        v = X.func(c)
        for _ in range(power):
            v = [sum(mat[a][b] * v[b] for b in range(6)) for a in range(6)]
        return v

    return VectorField(Chart.DELAUNAY, f, name=f"T^{power}{X.name}")


def apply_recursion_to_covector(alpha_func, power: int, rp: ReducedParams):
    """Pointwise application of the adjoint, (T* a)_b = a_c T^c_b."""
    T = recursion_operator(1, rp)

    def f(c):
        mat = T.func(c)
        a = alpha_func(c)
        for _ in range(power):
            a = [sum(a[cx] * mat[cx][b] for cx in range(6)) for b in range(6)]
        return a

    return f


# -- the scaling-relation ledger -----------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    identity: str
    i: int
    h: int
    l: int
    residual: float
    coefficient: float


def _vec_residual(lhs, rhs_field, coeff, x):
    rhs = rhs_field(x)
    return max(abs(duals.value(lhs[a]) - coeff * duals.value(rhs[a])) for a in range(6))


def _mat_residual(lhs, rhs_mat, coeff):
    return max(
        abs(duals.value(lhs[a][b]) - coeff * duals.value(rhs_mat[a][b]))
        for a in range(6)
        for b in range(6)
    )


def scaling_ledger(i: int, h: int, l: int, rp: ReducedParams, x) -> list:
    """Evaluate every scaling relation at a Delaunay point.

    Relations: repeated Lie derivatives along Gamma'_{i,h} of Gamma'_{i,l},
    X'_l, P'_l, omega'_l and of the recursion operator, plus the pairing of
    the l-th differential with Gamma'_{i,h}.  Residuals compare against the
    closed-form right-hand sides with the displayed rational coefficients.
    """
    entries = []
    gih = family_gamma_field(i, h, rp)
    den = 3.0 + i

    gil = family_gamma_field(i, l, rp)
    lhs = lie_derivative(gih, gil, x)
    coeff = (l - h) / den
    entries.append(LedgerEntry(
        identity="L_Gamma'ih (Gamma'il) = ((l-h)/(3+i)) Gamma'i(l+h)",
        i=i, h=h, l=l, coefficient=coeff,
        residual=_vec_residual(lhs, family_gamma_field(i, l + h, rp), coeff, x),
    ))

    xl = family_flow_field(l, rp)
    lhs = lie_derivative(gih, xl, x)
    coeff = -(3.0 - l) / den
    entries.append(LedgerEntry(
        identity="L_Gamma'ih (X'l) = -((3-l)/(3+i)) X'(l+h)",
        i=i, h=h, l=l, coefficient=coeff,
        residual=_vec_residual(lhs, family_flow_field(l + h, rp), coeff, x),
    ))

    pl = level_bivector(l, rp)
    lhs = lie_derivative(gih, pl, x)
    coeff = (l - h - 1.0) / den
    entries.append(LedgerEntry(
        identity="L_Gamma'ih (P'l) = ((l-h-1)/(3+i)) P'(l+h)",
        i=i, h=h, l=l, coefficient=coeff,
        residual=_mat_residual(lhs, level_bivector(l + h, rp)(x), coeff),
    ))

    wl = family_two_form(l, rp)
    lhs = lie_derivative(gih, wl, x)
    coeff = (l + h + 1.0) / den
    entries.append(LedgerEntry(
        identity="L_Gamma'ih (omega'l) = ((l+h+1)/(3+i)) omega'(l+h)",
        i=i, h=h, l=l, coefficient=coeff,
        residual=_mat_residual(lhs, family_two_form(l + h, rp)(x), coeff),
    ))

    T = recursion_operator(1, rp)
    lhs = lie_derivative(gih, T, x)
    coeff = 1.0 / den
    entries.append(LedgerEntry(
        identity="L_Gamma'ih (T) = (1/(3+i)) T^(1+h)",
        i=i, h=h, l=l, coefficient=coeff,
        residual=_mat_residual(lhs, recursion_operator(1 + h, rp)(x), coeff),
    ))

    m, k = rp.m, rp.k
    coords = list(x.coords) if isinstance(x, PhasePoint) else list(x)
    dh_l = m * k**2 * coords[2] ** (l - 3)  # I3-component of the l-th differential
    gval = gih(x)
    pair = duals.value(gval[2]) * dh_l
    if h + l == 2:
        expect = m * k**2 / den
        resid = abs(pair - expect)
        coeff = 1.0 / den
    else:
        hl_field = family_energy_field(l + h, rp)
        coeff = -(2.0 - (h + l)) / den
        expect = coeff * duals.value(hl_field(x))
        resid = abs(pair - expect)
    entries.append(LedgerEntry(
        identity="<dH'l, Gamma'ih> pairing",
        i=i, h=h, l=l, coefficient=coeff, residual=resid,
    ))
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
