"""Deformation data and the deformed Poisson structure on the cartesian chart.

The deformation is specified by two antisymmetric 3x3 matrices: ``alpha``
couples the positions, ``lam`` the momenta.  The operative bracket is

    {f, g} = sum_nu theta_nu^{-1} (df/dp_nu dg/dq^nu - df/dq^nu dg/dp_nu),

with weights ``theta_nu = 1 + (1/4) sum_mu lam[mu][nu] alpha[mu][nu]``; the
associated symplectic form is ``sum_nu theta_nu dp_nu ^ dq^nu``.  The linear
change of variables

    q'_i = q_i - (1/2) sum_j alpha[i][j] p_j,
    p'_i = p_i + (1/2) sum_j lam[i][j] q_j

carries the deformation into coordinates whose canonical brackets reproduce
the declared commutation table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .errors import InvalidDeformationError, config_number, config_object, is_number
from .geometry import Chart, PhasePoint, ScalarField, TensorField, constant_tensor

_ZERO3 = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _as_matrix(m) -> tuple:
    rows = tuple(tuple(float(v) for v in row) for row in m)
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise InvalidDeformationError("deformation matrices must be 3x3")
    return rows


def _check_antisymmetric(m, name: str):
    for i in range(3):
        for j in range(3):
            if m[i][j] != -m[j][i]:
                raise InvalidDeformationError(
                    f"{name} must be antisymmetric: entry ({i + 1},{j + 1}) "
                    f"is {m[i][j]} but ({j + 1},{i + 1}) is {m[j][i]}"
                )


@dataclass(frozen=True)
class DeformationParams:
    """Deformation matrices plus mass and coupling of the central force.

    ``gamma`` only enters the reported commutation table, never the
    dynamics; by default it is derived as -(1/4) alpha @ lam, which is what
    the canonical brackets of the primed coordinates actually produce (the
    two orderings of the product agree on their diagonal parts).
    """

    alpha: tuple = _ZERO3
    lam: tuple = _ZERO3
    mass: float = 1.0
    k: float = 1.0
    gamma: tuple | None = None

    def __post_init__(self):
        a = _as_matrix(self.alpha)
        l = _as_matrix(self.lam)
        _check_antisymmetric(a, "alpha")
        _check_antisymmetric(l, "lam")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "lam", l)
        if self.mass <= 0.0:
            raise InvalidDeformationError(f"mass must be positive, got {self.mass}")
        if self.k <= 0.0:
            raise InvalidDeformationError(f"coupling k must be positive, got {self.k}")
        if self.gamma is None:
            g = -0.25 * (np.array(a) @ np.array(l))
            object.__setattr__(self, "gamma", tuple(tuple(row) for row in g))
        else:
            object.__setattr__(self, "gamma", _as_matrix(self.gamma))
        th = theta_weights(self)
        object.__setattr__(self, "_theta", th)

    @property
    def theta(self) -> tuple:
        return self._theta

    @property
    def is_commutative(self) -> bool:
        return all(v == 0.0 for row in self.alpha for v in row) and all(
            v == 0.0 for row in self.lam for v in row
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": [list(r) for r in self.alpha],
                "lambda": [list(r) for r in self.lam],
                "mass": self.mass,
                "k": self.k,
            },
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, doc) -> "DeformationParams":
        """Parse a ``deformation`` config block; absent keys keep the defaults.

        Valid numbers pass through unconverted.  A block that is not an
        object, a matrix that is not 3x3 numbers or a scalar that is not a
        finite number is rejected with a message.
        """
        config_object(doc, "deformation block")
        return cls(
            alpha=_config_matrix(doc, "alpha"),
            lam=_config_matrix(doc, "lambda"),
            mass=config_number(doc, "mass", 1.0, "deformation", InvalidDeformationError),
            k=config_number(doc, "k", 1.0, "deformation", InvalidDeformationError),
        )


def _config_matrix(doc: dict, key: str):
    m = doc.get(key, _ZERO3)
    if not (
        isinstance(m, (list, tuple)) and len(m) == 3
        and all(isinstance(r, (list, tuple)) and len(r) == 3 and all(map(is_number, r)) for r in m)
    ):
        raise InvalidDeformationError(
            f"deformation {key} must be a 3x3 matrix of numbers, got {m!r}"
        )
    return m


def theta_weights(params: DeformationParams) -> tuple:
    """``theta_nu = 1 + (1/4) sum_mu lam[mu][nu] alpha[mu][nu]``, all nonzero.

    The sum runs over the three phase-space axes; there is no fourth
    coordinate pair for it to range over.
    """
    out = []
    for nu in range(3):
        t = 1.0 + 0.25 * sum(params.lam[mu][nu] * params.alpha[mu][nu] for mu in range(3))
        if t == 0.0 or not math.isfinite(t):
            raise InvalidDeformationError(
                f"theta weight {nu + 1} vanishes; the deformation is invalid"
            )
        out.append(t)
    return tuple(out)


def nc_bracket(f: ScalarField, g: ScalarField, x, params: DeformationParams):
    """The deformed bracket of two observables at a cartesian point."""
    coords = list(x.coords) if isinstance(x, PhasePoint) else list(x)
    df = duals.grad(f.func, coords)
    dg = duals.grad(g.func, coords)
    th = params.theta
    total = 0.0
    for nu in range(3):
        total = total + (df[3 + nu] * dg[nu] - df[nu] * dg[3 + nu]) / th[nu]
    return total


def nc_bracket_field(f: ScalarField, g: ScalarField, params: DeformationParams) -> ScalarField:
    """Same bracket packaged as a scalar field, so brackets nest."""
    return ScalarField(
        Chart.CARTESIAN,
        lambda coords: nc_bracket(f, g, coords, params),
        name=f"{{{f.name},{g.name}}}",
    )


def transform_coordinates(x, params: DeformationParams):
    """Primed coordinates of a cartesian point (generic in the scalar type)."""
    coords = list(x.coords) if isinstance(x, PhasePoint) else list(x)
    q = coords[:3]
    p = coords[3:]
    a, l = params.alpha, params.lam
    qp = [q[i] - 0.5 * sum(a[i][j] * p[j] for j in range(3)) for i in range(3)]
    pp = [p[i] + 0.5 * sum(l[i][j] * q[j] for j in range(3)) for i in range(3)]
    return qp + pp


def transform_point(x: PhasePoint, params: DeformationParams) -> PhasePoint:
    return PhasePoint(tuple(transform_coordinates(x, params)), Chart.CARTESIAN)


def transform_matrix(params: DeformationParams) -> np.ndarray:
    """The 6x6 linear map (q, p) -> (q', p')."""
    a = np.array(params.alpha)
    l = np.array(params.lam)
    top = np.hstack([np.eye(3), -0.5 * a])
    bottom = np.hstack([0.5 * l, np.eye(3)])
    return np.vstack([top, bottom])


def inverse_transform_point(x: PhasePoint, params: DeformationParams) -> PhasePoint:
    m = transform_matrix(params)
    if abs(np.linalg.det(m)) < 1e-14:
        raise InvalidDeformationError("primed-coordinate map is not invertible")
    back = np.linalg.solve(m, np.array(x.coords))
    return PhasePoint(tuple(back), Chart.CARTESIAN)


@dataclass(frozen=True)
class BracketTable:
    """Declared commutation relations: qq, qp and pp blocks."""

    qq: tuple
    qp: tuple
    pp: tuple

    def __post_init__(self):
        _check_antisymmetric(self.qq, "qq block")
        _check_antisymmetric(self.pp, "pp block")


def beta_bracket_table(params: DeformationParams) -> BracketTable:
    """The declared relations: qq = alpha, qp = identity + gamma, pp = lam."""
    ident_plus_gamma = tuple(
        tuple((1.0 if i == j else 0.0) + params.gamma[i][j] for j in range(3))
        for i in range(3)
    )
    return BracketTable(qq=params.alpha, qp=ident_plus_gamma, pp=params.lam)


def coordinate_function(index: int) -> ScalarField:
    names = ("q1", "q2", "q3", "p1", "p2", "p3")
    return ScalarField(Chart.CARTESIAN, lambda c, i=index: c[i], name=names[index])


def primed_coordinate_function(index: int, params: DeformationParams) -> ScalarField:
    names = ("q1p", "q2p", "q3p", "p1p", "p2p", "p3p")
    return ScalarField(
        Chart.CARTESIAN,
        lambda c, i=index: transform_coordinates(c, params)[i],
        name=names[index],
    )


def canonical_bracket(f: ScalarField, g: ScalarField, x):
    """Undeformed bracket sum_i (df/dq^i dg/dp_i - df/dp_i dg/dq^i)."""
    coords = list(x.coords) if isinstance(x, PhasePoint) else list(x)
    df = duals.grad(f.func, coords)
    dg = duals.grad(g.func, coords)
    return sum(df[i] * dg[3 + i] - df[3 + i] * dg[i] for i in range(3))


def nc_symplectic_structures(params: DeformationParams) -> tuple[TensorField, TensorField]:
    """Constant two-form ``sum theta_nu dp_nu ^ dq^nu`` and its inverse bivector.

    The bivector's induced bracket coincides with :func:`nc_bracket`, and the
    flat/sharp composition of the pair is the identity.
    """
    th = params.theta
    w = [[0.0] * 6 for _ in range(6)]
    p = [[0.0] * 6 for _ in range(6)]
    for nu in range(3):
        w[3 + nu][nu] = th[nu]
        w[nu][3 + nu] = -th[nu]
        p[3 + nu][nu] = 1.0 / th[nu]
        p[nu][3 + nu] = -1.0 / th[nu]
    omega = constant_tensor(Chart.CARTESIAN, w, "dd", name="omega_nc")
    bivector = constant_tensor(Chart.CARTESIAN, p, "uu", name="P_nc")
    return omega, bivector
