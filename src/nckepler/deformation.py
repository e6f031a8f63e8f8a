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

import math
from dataclasses import dataclass

import numpy as np

from . import duals
from .errors import InvalidDeformationError, config_number, config_object, is_number
from .geometry import ScalarField, TensorField, constant_tensor, coords_of, dot, pair_matrix

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

    The ``{q, p}`` block of the commutation table, identity plus
    ``gamma = -(1/4) alpha @ lam``, follows from these (see
    :func:`beta_bracket_table`)."""

    alpha: tuple = _ZERO3
    lam: tuple = _ZERO3
    mass: float = 1.0
    k: float = 1.0

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
        t = 1.0 + 0.25 * dot([row[nu] for row in params.lam], [row[nu] for row in params.alpha])
        if t == 0.0 or not math.isfinite(t):
            raise InvalidDeformationError(
                f"theta weight {nu + 1} vanishes; the deformation is invalid"
            )
        out.append(t)
    return tuple(out)


def weighted_bracket(df, dg, theta):
    """The deformed bracket from the cartesian gradients ``df`` and ``dg``:
    ``sum_nu (df/dp_nu dg/dq^nu - df/dq^nu dg/dp_nu) / theta_nu``."""
    total = 0.0
    for nu in range(3):
        total = total + (df[3 + nu] * dg[nu] - df[nu] * dg[3 + nu]) / theta[nu]
    return total


def nc_bracket(f: ScalarField, g: ScalarField, x, params: DeformationParams):
    """The deformed bracket of two observables at a cartesian point."""
    coords = coords_of(x)
    return weighted_bracket(duals.grad(f.func, coords), duals.grad(g.func, coords), params.theta)


def nc_bracket_field(f: ScalarField, g: ScalarField, params: DeformationParams) -> ScalarField:
    """Same bracket packaged as a scalar field, so brackets nest."""
    return ScalarField(lambda coords: nc_bracket(f, g, coords, params))


def transform_coordinates(x, params: DeformationParams):
    """Primed coordinates of a cartesian point (generic in the scalar type)."""
    coords = coords_of(x)
    q = coords[:3]
    p = coords[3:]
    a, l = params.alpha, params.lam
    qp = [q[i] - 0.5 * dot(a[i], p) for i in range(3)]
    pp = [p[i] + 0.5 * dot(l[i], q) for i in range(3)]
    return qp + pp


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
    """The declared relations: qq = alpha, qp = identity + gamma, pp = lam,
    with ``gamma = -(1/4) alpha @ lam``, which is what the canonical brackets
    of the primed coordinates produce (the two orderings of the product
    agree on their diagonal parts).  ``gamma`` enters only this table,
    never the dynamics."""
    gamma = -0.25 * (np.array(params.alpha) @ np.array(params.lam))
    ident_plus_gamma = tuple(
        tuple((1.0 if i == j else 0.0) + gamma[i][j] for j in range(3))
        for i in range(3)
    )
    return BracketTable(qq=params.alpha, qp=ident_plus_gamma, pp=params.lam)


def coordinate_function(index: int) -> ScalarField:
    return ScalarField(lambda c, i=index: c[i])


def nc_symplectic_structures(params: DeformationParams) -> tuple[TensorField, TensorField]:
    """Constant two-form ``sum theta_nu dp_nu ^ dq^nu`` and its inverse bivector.

    The bivector's induced bracket coincides with :func:`nc_bracket`, and the
    flat/sharp composition of the pair is the identity.
    """
    th = params.theta
    omega = constant_tensor(pair_matrix([-t for t in th]), "dd")
    bivector = constant_tensor(pair_matrix([-1.0 / t for t in th]), "uu")
    return omega, bivector
