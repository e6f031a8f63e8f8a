"""The five verification suites behind the CLI and the acceptance tests.

Every suite evaluates a battery of identities at seeded sample points and
returns a :class:`~nckepler.report.SuiteReport` whose entries carry the
achieved residual and the tolerance it was held to.  Interpretation notes
record the convention findings that the numerics arbitrated, so reports
document rather than hide the ambiguities of the source material.

A :class:`Suite` pairs a context function with an ordered tuple of checks.
The context is an immutable value built once per run: the suite's samples,
deformations and fields.  A check is a generator over the context that
yields, in report order, an :class:`Entry` per identity and a string per
note.  One runner, :func:`run_checks`, records them; an entry's residual is
the NaN-safe fold :func:`~nckepler.geometry.max_abs` of its per-point
values, so a residual that cannot be evaluated fails its entry.

A dual-based check passes its points to each field as one
:func:`~nckepler.geometry.batch`, six float64 arrays, so every field is
evaluated once per check, not once per point, and each point keeps the
bits of its own float evaluation.  Random draws batch the same way: the
random-observable brackets draw their coefficients row by row and stack
them into arrays over the rows, and the algebra Jacobi rows each read
their own entries of one Jacobian of the basis and one of its brackets.
Only the action identities, the chart structures, the canonical maps and
the closed-form flow still evaluate point by point; the flow is the
integrators' own right-hand side, which takes one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import duals
from .charts import (
    action_angle_to_delaunay,
    delaunay_coords,
    delaunay_to_action_angle,
    forward_jacobian,
    spherical_to_cartesian,
)
from .deformation import (
    DeformationParams,
    beta_bracket_table,
    coordinate_function,
    nc_bracket,
    nc_bracket_field,
    nc_symplectic_structures,
    transform_coordinates,
    weighted_bracket,
)
from .errors import config_int, config_number, config_object
from .geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    TensorField,
    batch,
    bivector_bracket,
    dot,
    flow_pairing_residual,
    gradient,
    inverse_pair_residual,
    jet,
    lie_bracket,
    lie_bracket_field,
    max_abs,
    max_abs_per_point,
    nijenhuis_torsion,
    pair_matrix,
    schouten_bracket,
)
from .hierarchy import (
    classical_delaunay,
    corrupted_first_level_bivector,
    displayed_bivector_table,
    energy_rescaled_map,
    hierarchy_in_action_angle,
    ladder_energy_field,
    lambda_bracket,
    level_bivector,
    level_two_form,
    recursion_operator,
    transported,
    weight_vector,
)
from .kepler import (
    MONITOR_NAMES,
    hamilton_rhs_closed_form,
    hamilton_rhs_primed_form,
    hamiltonian_field,
    hamiltonian_vector_field_nc,
    integrate,
    integrate_field,
    primed_angular_momentum,
    primed_lrl_vector,
)
from .master import (
    coefficient_pattern_table,
    conformal_coefficients,
    dynamical_symmetry,
    family_energy_field,
    family_flow_field,
    family_gamma_field,
    apply_recursion_to_vector,
    master_symmetry_field,
    pairing_residual,
    scaling_ledger,
)
from .reduced import (
    ReducedParams,
    actions_from_integrals,
    continuous_angles,
    energy_from_actions,
    first_integrals,
    frequencies,
    isochronous_derivative,
    kolmogorov_determinant,
    polar_action_quadrature,
    radial_action_quadrature,
    reduced_structures,
    spherical_hamiltonian,
    spherical_rhs,
    quadratic_condition_value,
)
from .report import SuiteReport
from .sampling import (
    DEFAULT_SEED,
    polynomial_field,
    random_polynomial_coefficients,
    sample_action_angle,
    sample_cartesian,
    sample_deformations,
    sample_delaunay,
    sample_spherical_bound,
)
from .symmetry import (
    EnergySign,
    bracket_H_closed_forms,
    closure_fit,
    generator_matrix,
    involution_parameter_search,
    observables_frame,
    observables_jacobian,
    pairwise_bracket_table,
    structure_matrices,
)


@dataclass(frozen=True)
class VerifyConfig:
    deformation: DeformationParams = field(default_factory=DeformationParams)
    reduced: ReducedParams = field(default_factory=lambda: ReducedParams(thetadot=0.006, phidot=0.3))
    seed: int = DEFAULT_SEED
    samples: int = 100
    deformation_sets: int = 10
    h_max: int = 3
    i_max: int = 2
    l_max: int = 2
    tol_bracket: float = 1e-9
    tol_transport: float = 1e-9
    tol_drift: float = 1e-8
    tol_exact: float = 1e-12
    negative_control: bool = False

    def __post_init__(self):
        for name in ("tol_bracket", "tol_transport", "tol_drift", "tol_exact"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be positive and finite")
        if self.samples <= 0 or self.deformation_sets <= 0:
            raise ValueError("sample counts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if min(self.h_max, self.i_max, self.l_max) < 0:
            raise ValueError("index caps must be non-negative")

    @classmethod
    def from_dict(cls, doc) -> "VerifyConfig":
        """Parse a scenario document; absent blocks and keys keep the defaults."""
        kwargs = {}
        if "deformation" in config_object(doc, "config"):
            kwargs["deformation"] = DeformationParams.from_dict(doc["deformation"])
        if "reduced" in doc:
            kwargs["reduced"] = ReducedParams.from_dict(doc["reduced"])
        ver = config_object(doc.get("verification", {}), "verification block")
        tols = config_object(ver.get("tolerances", {}), "verification tolerances")
        for key in ("seed", "samples", "deformation_sets", "h_max", "i_max", "l_max"):
            if key in ver:
                kwargs[key] = config_int(ver, key, None, "verification")
        for key in ("bracket", "transport", "drift", "exact"):
            if key in tols:
                kwargs[f"tol_{key}"] = float(config_number(tols, key, None, "tolerance"))
        return cls(**kwargs)


GENERAL_NOTES = (
    "theta weights sum over the three phase-space axes (a fourth index has no "
    "coordinate pair to act on)",
    "all dynamics use the bracket normalized by {p_i, q^j} = +theta_j^{-1} "
    "delta_ij; the declared commutation table with {q_i, p_j} = delta + gamma "
    "is reported alongside through the primed coordinates",
    "the closed-form equations of motion confirm the excluded-diagonal double "
    "sums (the diagonal lives inside the sigma coefficients), and their radial "
    "coefficients require the coupling constant factor; both choices are pinned "
    "by the autodiff bracket route",
)


# -- contexts, entries and the runner -----------------------------------------


@dataclass(frozen=True)
class Context:
    """The configuration of a run and the suite's sample points; the first
    point is where an entry is reported unless it names its own."""

    cfg: VerifyConfig
    points: list


class Entry(NamedTuple):
    """One report entry as a check yields it: ``residual`` is a number or a
    nested sequence of per-point residuals.  ``point`` defaults to the
    suite's first sample and ``lhs``/``rhs`` to ``residual, 0.0``."""

    identity: str
    statement: str
    residual: object
    tolerance: float
    point: tuple | None = None
    lhs: float | None = None
    rhs: float = 0.0


def run_checks(rep: SuiteReport, ctx: Context, checks) -> SuiteReport:
    """Run ``checks`` in order on ``ctx`` and add to ``rep`` what each
    yields: a string as a note, an :class:`Entry` as a report entry."""
    for check in checks:
        for item in check(ctx):
            if isinstance(item, str):
                rep.note(item)
                continue
            residual = max_abs(item.residual)
            rep.add(item.identity, item.statement,
                    ctx.points[0].coords if item.point is None else item.point,
                    residual if item.lhs is None else item.lhs, item.rhs,
                    residual, item.tolerance)
    return rep


@dataclass(frozen=True)
class Suite:
    """A name, its context function and its ordered checks; calling the
    suite with a :class:`VerifyConfig` runs them and returns the report."""

    name: str
    context: Callable[[VerifyConfig], Context]
    checks: tuple

    def __call__(self, cfg: VerifyConfig) -> SuiteReport:
        rep = SuiteReport(self.name)
        for text in GENERAL_NOTES:
            rep.note(text)
        return run_checks(rep, self.context(cfg), self.checks)


def _gaps(lhs, rhs) -> list:
    """Componentwise ``lhs - rhs`` of two sequences, dual parts dropped."""
    return [duals.value(a) - duals.value(b) for a, b in zip(lhs, rhs)]


def _table_gaps(bracket, blocks) -> list:
    """For each ``(f, g, table)`` of ``blocks``, the gaps
    ``bracket(f[i], g[j]) - table[i][j]`` for ``i, j < 3``."""
    return [[bracket(f[i], g[j]) - table[i][j] for i in range(3) for j in range(3)]
            for f, g, table in blocks]


def _cyclic_sum(f, g, h, x, params: DeformationParams):
    """``{f, {g, h}} + {g, {h, f}} + {h, {f, g}}`` at ``x``."""
    return (
        nc_bracket(f, nc_bracket_field(g, h, params), x, params)
        + nc_bracket(g, nc_bracket_field(h, f, params), x, params)
        + nc_bracket(h, nc_bracket_field(f, g, params), x, params)
    )


# -- brackets suite -----------------------------------------------------------


@dataclass(frozen=True)
class BracketsContext(Context):
    params: DeformationParams  # a generic deformation
    omega: TensorField
    bivector: TensorField


def _brackets_context(cfg: VerifyConfig) -> BracketsContext:
    params = cfg.deformation
    if params.is_commutative:
        params = sample_deformations(1, cfg.seed + 13)[0]
    omega, bivector = nc_symplectic_structures(params)
    return BracketsContext(cfg, sample_cartesian(cfg.samples, cfg.seed, params), params,
                           omega, bivector)


def _primed_gradients(ctx: BracketsContext, points: list) -> tuple:
    """Gradients of ``q'`` and of ``p'``, rows of one Jacobian of
    :func:`transform_coordinates` over the batch of ``points``."""
    J = duals.jacobian(lambda c: transform_coordinates(c, ctx.params), batch(points))
    return J[:3], J[3:]


def _bracket_patterns(ctx: BracketsContext):
    params, tol = ctx.params, ctx.cfg.tol_exact
    coord = [coordinate_function(i) for i in range(6)]
    q, p, zero = coord[:3], coord[3:], [[0.0] * 3] * 3
    inverse = [[1.0 / params.theta[j] if i == j else 0.0 for j in range(3)] for i in range(3)]
    x = batch(ctx.points)
    pq, qq, pp = _table_gaps(lambda f, g: nc_bracket(f, g, x, params),
                             ((p, q, inverse), (q, q, zero), (p, p, zero)))
    yield Entry("bracket-pattern-pq", "{p_i, q^j} = theta_j^{-1} delta_ij", pq, tol)
    yield Entry("bracket-pattern-qq", "{q^i, q^j} = 0", qq, tol)
    yield Entry("bracket-pattern-pp", "{p_i, p_j} = 0", pp, tol)


def _structure_brackets(ctx: BracketsContext):
    params, tol = ctx.params, ctx.cfg.tol_exact
    sm = structure_matrices(params)
    q, p = _primed_gradients(ctx, ctx.points[: max(10, ctx.cfg.samples // 10)])
    F, D, E = _table_gaps(lambda df, dg: weighted_bracket(df, dg, params.theta),
                          ((p, q, sm.F), (p, p, sm.D), (q, q, sm.E)))
    yield Entry("structure-F", "weighted bracket {p'_i, q'^j} equals F_ij", F, tol)
    yield Entry("structure-D", "weighted bracket {p'_i, p'_j} equals D_ij", D, tol)
    yield Entry("structure-E", "weighted bracket {q'^i, q'^j} equals E_ij", E, tol)


def _beta_table(ctx: BracketsContext):
    tol = ctx.cfg.tol_exact
    table = beta_bracket_table(ctx.params)
    q, p = _primed_gradients(ctx, ctx.points[:10])
    # the canonical bracket {f, g} is the weighted bracket of (g, f) at unit weights
    qq, qp, pp = _table_gaps(lambda df, dg: weighted_bracket(dg, df, (1.0, 1.0, 1.0)),
                             ((q, q, table.qq), (q, p, table.qp), (p, p, table.pp)))
    yield Entry("beta-table-qq", "canonical {q'_i, q'_j} reproduces the declared qq block", qq, tol)
    yield Entry("beta-table-qp", "canonical {q'_i, p'_j} reproduces identity + gamma", qp, tol)
    yield Entry("beta-table-pp", "canonical {p'_i, p'_j} reproduces the declared pp block", pp, tol)


def _symplectic_inverse(ctx: BracketsContext):
    x = ctx.points[0]
    yield Entry("symplectic-inverse", "flat/sharp composition of the pair is the identity",
                inverse_pair_residual(ctx.omega(x), ctx.bivector(x)), 1e-14)


def _draws(rng, rows: int, n: int, points: list):
    """``rows`` draws of ``n`` random polynomial observables and then a
    sample point each, as ``n`` observables whose coefficients are arrays
    over the rows, and the batch of the drawn points."""
    coefficients, picks = [], []
    for _ in range(rows):
        coefficients.append([random_polynomial_coefficients(rng) for _ in range(n)])
        picks.append(points[int(rng.integers(0, len(points)))])
    fields = []
    for f in range(n):
        lin = np.array([row[f][0] for row in coefficients]).T
        quad = np.array([row[f][1] for row in coefficients]).transpose(1, 2, 0)
        fields.append(polynomial_field(list(lin), [list(r) for r in quad]))
    return fields, batch(picks)


def _random_brackets(ctx: BracketsContext):
    # bivector-bracket and jacobi draw in sequence from one generator
    params = ctx.params
    rng = np.random.default_rng(ctx.cfg.seed + 1)
    (f, g), x = _draws(rng, 50, 2, ctx.points)
    yield Entry("bivector-bracket", "bivector-induced bracket equals the weighted bracket",
                nc_bracket(f, g, x, params) - duals.value(bivector_bracket(ctx.bivector, f, g)(x)),
                ctx.cfg.tol_exact)
    (f, g, h), x = _draws(rng, 12, 3, ctx.points)
    yield Entry("jacobi", "cyclic bracket sum vanishes for smooth observables",
                _cyclic_sum(f, g, h, x, params), 1e-10)


def _equations_of_motion(ctx: BracketsContext):
    """Equations-of-motion equivalence across random deformation sets."""
    cfg = ctx.cfg
    defs = sample_deformations(cfg.deformation_sets, cfg.seed + 2)
    closed, primed, iota = [], [], []
    for pset in defs:
        pts = sample_cartesian(max(10, cfg.samples // len(defs)), cfg.seed + 3, pset)
        x = batch(pts)
        X = hamiltonian_vector_field_nc(pset)
        omega_p, _ = nc_symplectic_structures(pset)
        cf = batch([hamilton_rhs_closed_form(p, pset) for p in pts])
        closed.append(_gaps(cf, X(x)))
        primed.append(_gaps(cf, hamilton_rhs_primed_form(x, pset)))
        iota.append(flow_pairing_residual(X, omega_p, hamiltonian_field(pset), x))
    yield Entry("eom-closed-vs-bivector",
                "closed-form equations of motion equal the bivector flow", closed, 1e-10)
    yield Entry("eom-primed-vs-closed",
                "primed-coordinate form of the flow equals the unprimed form", primed, 1e-10)
    yield Entry("eom-interior-product",
                "contraction of the flow with the symplectic form is minus dH", iota, 1e-10)
    yield ("the excluded-diagonal reading of the double sums matches the bracket "
           "flow exactly; no discrepancy to flag")
    yield ("the primed momentum equation requires an overall sign opposite to its "
           "displayed form to match the bracket flow (the displayed sign fails the "
           "commutative limit)")


# -- algebra suite ------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraContext(Context):
    params: DeformationParams  # a generic deformation
    comm: DeformationParams  # its commutative limit
    comm_points: list  # negative energy, commutative limit
    plus_points: list  # positive energy, commutative limit


def _algebra_context(cfg: VerifyConfig) -> AlgebraContext:
    params = cfg.deformation
    if params.is_commutative:
        params = sample_deformations(1, cfg.seed + 17)[0]
    comm = DeformationParams(mass=params.mass, k=params.k)
    return AlgebraContext(
        cfg, sample_cartesian(cfg.samples, cfg.seed, params), params, comm,
        sample_cartesian(cfg.samples, cfg.seed + 4, comm, energy_sign="minus"),
        sample_cartesian(30, cfg.seed + 5, comm, energy_sign="plus"),
    )


def _bracket_closed_forms(ctx: AlgebraContext):
    params, th, x = ctx.params, ctx.params.theta, batch(ctx.points)
    frame, J = observables_jacobian(x, params)
    cL, cA = bracket_H_closed_forms(frame, params)
    yield Entry("bracket-H-L", "closed form of {H, L_i} matches autodiff at generic deformation",
                [weighted_bracket(J[0], J[1 + i], th) - cL[i] for i in range(3)], ctx.cfg.tol_bracket)
    yield Entry("bracket-H-A", "closed form of {H, A_i} matches autodiff at generic deformation",
                [weighted_bracket(J[0], J[4 + i], th) - cA[i] for i in range(3)], ctx.cfg.tol_bracket)
    yield ("the middle group of the {H, A_i} closed form pairs its coefficient row "
           "with the Levi-Civita index of the momentum factor; pairing it with the "
           "angular-momentum index instead fails the autodiff cross-check")


def _pairwise_tables(ctx: AlgebraContext):
    """Pairwise tables at the generic deformation, then in the commutative
    limit; the first 10 generic points also give the LA deviation note."""
    table = pairwise_bracket_table(batch(ctx.points[: max(10, ctx.cfg.samples // 10)]), ctx.params)
    yield Entry("pairwise-chain", "structure-matrix route equals autodiff for every pairwise bracket",
                [e.ad_vs_chain for block in table.values() for e in block.values()],
                ctx.cfg.tol_bracket)
    closed = [e.ad_vs_closed for block in pairwise_bracket_table(batch(ctx.comm_points), ctx.comm).values()
              for e in block.values()]
    generic = max_abs(e.ad_vs_closed[:10] for e in table["LA"].values())
    yield Entry("pairwise-closed-commutative",
                "structure-constant bracket table matches autodiff in the commutative limit",
                closed, ctx.cfg.tol_bracket, point=ctx.comm_points[0].coords)
    yield (f"at generic deformations the structure-constant pairwise forms deviate "
           f"from autodiff (max residual {generic:.3e} over sampled points); they "
           f"presuppose the involution conditions and are asserted only where those "
           f"hold (the commutative limit)")


def _closure_fits(ctx: AlgebraContext):
    fit = closure_fit(ctx.comm_points[:30], ctx.comm, EnergySign.MINUS)
    yield Entry("so4-closure", "bound-region closure fit follows the so(4) pattern",
                (fit.residual, fit.coefficient_GG - fit.coefficient_LL,
                 fit.coefficient_LG - fit.coefficient_LL), 1e-8,
                point=ctx.comm_points[0].coords, lhs=fit.coefficient_GG, rhs=fit.coefficient_LL)
    fit = closure_fit(ctx.plus_points, ctx.comm, EnergySign.PLUS)
    yield Entry("so13-closure", "positive-energy closure fit flips the scaled-vector sign",
                (fit.residual, fit.coefficient_GG + fit.coefficient_LL,
                 fit.coefficient_LG - fit.coefficient_LL), 1e-8,
                point=ctx.plus_points[0].coords, lhs=fit.coefficient_GG, rhs=-fit.coefficient_LL)


def _generator_patterns(ctx: AlgebraContext):
    for kind, pts in (("so4", ctx.comm_points), ("so13", ctx.plus_points)):
        mat = generator_matrix(ctx.comm, kind, pts[0])
        sym = 1.0 if kind == "so4" else -1.0
        yield Entry(f"{kind}-generator-pattern",
                    f"{kind} generator matrix keeps its corner pattern (zero corner, "
                    f"{'anti' if kind == 'so4' else ''}symmetric boundary row)",
                    [mat[3][3]] + [mat[h][3] + sym * mat[3][h] for h in range(3)],
                    ctx.cfg.tol_exact, point=pts[0].coords)


def _algebra_jacobi(ctx: AlgebraContext):
    """Jacobi identity on the spanned algebra (L, A).  Each row draws three
    basis fields and then a point; over the batch of the drawn points, one
    Jacobian of the basis and one of the pair brackets the rows name serve
    every row, and each row reads its own entries of them."""
    comm, pts, th = ctx.comm, ctx.comm_points, ctx.comm.theta
    rng = np.random.default_rng(ctx.cfg.seed + 6)
    triples, picks = [], []
    for _ in range(10):
        triples.append(rng.integers(0, 6, size=3).tolist())
        picks.append(pts[int(rng.integers(0, len(pts)))])
    # {f, {g, h}} + {g, {h, f}} + {h, {f, g}} of the fields (f, g, h)
    terms = [[(i, (j, k)), (j, (k, i)), (k, (i, j))] for i, j, k in triples]
    pairs = sorted({pair for row in terms for _, pair in row})

    def basis(c):
        z = transform_coordinates(c, comm)
        return primed_angular_momentum(z) + primed_lrl_vector(z, comm)

    def pair_brackets(c):
        J = duals.jacobian(basis, c)
        return [weighted_bracket(J[j], J[k], th) for j, k in pairs]

    x, rows = batch(picks), np.arange(len(picks))
    d_basis = np.array(duals.jacobian(basis, x))  # [field][coordinate][row]
    d_pairs = np.array(duals.jacobian(pair_brackets, x))
    cyclic = [weighted_bracket(list(d_basis[[row[t][0] for row in terms], :, rows].T),
                               list(d_pairs[[pairs.index(row[t][1]) for row in terms], :, rows].T), th)
              for t in range(3)]
    yield Entry("algebra-jacobi", "cyclic bracket sum over the conserved basis vanishes",
                cyclic[0] + cyclic[1] + cyclic[2], ctx.cfg.tol_bracket, point=pts[0].coords)


def _involution_search(ctx: AlgebraContext):
    s, theta = involution_parameter_search()
    yield (f"involution condition 1, solved exactly: lam_ij alpha_ij = {s} for the pairs "
           f"(1,2), (1,3), (2,3), where the theta weights are {theta}; every weight "
           f"vanishes, so no valid deformation satisfies it")


def _conservation(ctx: AlgebraContext):
    """Conservation along commutative orbits (circular and e = 0.6)."""
    m, k = ctx.comm.mass, ctx.comm.k
    # eccentric orbit starts at pericenter: r = a(1-e) with e = 0.6, a = 1,
    # v_peri = sqrt((k/m a) (1+e)/(1-e))
    a_el, e_el = 1.0, 0.6
    r_peri = a_el * (1.0 - e_el)
    v_peri = math.sqrt(k / (m * a_el) * (1.0 + e_el) / (1.0 - e_el))
    runs = {
        "circular": PhasePoint((1.0, 0.0, 0.0, 0.0, math.sqrt(m * k), 0.0), Chart.CARTESIAN),
        "eccentric": PhasePoint((r_peri, 0.0, 0.0, 0.0, m * v_peri, 0.0), Chart.CARTESIAN),
    }
    for label, start in runs.items():
        traj = integrate(start, ctx.comm, dt=1e-3, n_steps=10_000, method="rk4",
                         monitors=MONITOR_NAMES)
        if not traj.completed:
            yield Entry(f"conservation-{label}", "orbit integration completed", 1.0, 0.5,
                        point=start.coords, lhs=0.0, rhs=1.0)
            continue
        yield Entry(f"conservation-{label}-H", f"relative energy drift on the {label} orbit",
                    traj.drift("H"), ctx.cfg.tol_drift, point=start.coords)
        yield Entry(f"conservation-{label}-L", f"angular momentum drift on the {label} orbit",
                    [traj.drift(f"L{i + 1}") for i in range(3)], 1e-7, point=start.coords)
        yield Entry(f"conservation-{label}-A", f"Runge-Lenz drift on the {label} orbit",
                    [traj.drift(f"A{i + 1}") for i in range(3)], 1e-7, point=start.coords)


def _flow_bracket_consistency(ctx: AlgebraContext):
    """Deformed case: monitored dL/dt equals the closed-form bracket along the flow."""
    params = ctx.params
    x_nc = sample_cartesian(1, ctx.cfg.seed + 7, params, energy_sign="minus")[0]
    dt = 2e-4
    traj = integrate(x_nc, params, dt=dt, n_steps=400, method="rk4", monitors=("L1", "L2", "L3"))
    picked = range(5, len(traj.states) - 5, 25)
    frame = observables_frame(list(traj.states[picked].T.copy()), params)
    closed = bracket_H_closed_forms(frame, params)[0]
    series = [traj.monitor_series(f"L{i + 1}").tolist() for i in range(3)]
    gaps, rates = [], []
    for n, idx in enumerate(picked):
        for s, column in zip(series, closed):
            cf = float(column[n])
            fd = (-s[idx + 2] + 8.0 * s[idx + 1] - 8.0 * s[idx - 1] + s[idx - 2]) / (12.0 * dt)
            rates.append(cf)
            gaps.append(abs(fd - cf) / max(abs(cf), 1e-3))
    yield Entry("flow-bracket-consistency", "time derivative of monitored L_i along the flow equals {H, L_i}",
                gaps, 1e-5, point=x_nc.coords)
    yield (f"at generic deformations the monitored angular momentum genuinely "
           f"drifts (max |{{H, L_i}}| = {max_abs(rates):.3e} along the sampled flow)")


# -- action-angle suite -------------------------------------------------------


def _action_angle_context(cfg: VerifyConfig) -> Context:
    return Context(cfg, sample_spherical_bound(max(20, cfg.samples // 2), cfg.seed, cfg.reduced))


def _action_identities(ctx: Context):
    rp, tol = ctx.cfg.reduced, ctx.cfg.tol_exact
    rows = []
    for s in ctx.points:
        E = spherical_hamiltonian(s, rp)
        _, d, lt = first_integrals(s, rp)
        J = actions_from_integrals(E, lt, d, rp)
        fr = frequencies(J, rp)
        rows.append((energy_from_actions(J, rp) - E,
                     (fr[0] - fr[2], fr[1] - rp.M * fr[0]),
                     fr[0] - isochronous_derivative(E, rp),
                     kolmogorov_determinant(J, rp),
                     polar_action_quadrature(lt, d, rp) - J[1],
                     radial_action_quadrature(E, lt, rp) - J[0]))
    energy, degeneracy, iso, det, polar, radial = zip(*rows)
    yield Entry("energy-roundtrip", "actions reproduce the energy they were built from", energy, tol)
    yield Entry("frequency-degeneracy",
                "energy depends on the actions only through their weighted sum", degeneracy, tol)
    yield Entry("isochronous-derivative", "radial frequency equals (-2E)^{3/2} / (k sqrt(m))", iso, tol)
    yield Entry("action-hessian-degenerate",
                "determinant of the action Hessian of the energy vanishes", det, 1e-14)
    yield Entry("polar-action-quadrature",
                "loop quadrature of the polar action matches (L~ - D)/M", polar, 1e-6)
    yield Entry("radial-action-quadrature",
                "loop quadrature of the radial action matches -L~ + mk/sqrt(-2mE)", radial, 1e-6)


def _chart_structures(ctx: Context):
    """Canonical structures on the chart."""
    rp, tol = ctx.cfg.reduced, ctx.cfg.tol_exact
    bivector, omega, flow = reduced_structures(rp)
    H_aa = ScalarField(lambda c: energy_from_actions(c[:3], rp))
    iota, inverse, actions = zip(*[
        (flow_pairing_residual(flow, omega, H_aa, x), inverse_pair_residual(omega(x), bivector(x)),
         flow(x)[:3])
        for x in sample_action_angle(20, ctx.cfg.seed + 1)
    ])
    yield Entry("aa-interior-product", "flow contraction with the chart form is minus dH", iota, 1e-11)
    yield Entry("aa-inverse-pair", "chart bivector and form are mutually inverse", inverse, tol)
    yield Entry("aa-action-conservation", "flow has no action components", actions, tol)


def _energy_monitor(rp: ReducedParams):
    """``integrate_field`` hook that feeds the reduced energy of each block
    of states to the collision detector and records it as ``H``."""

    def observe(cols):
        E = spherical_hamiltonian(cols, rp)
        return None, E, (E,)

    return observe


def _reduced_flow(ctx: Context):
    """Integrals conserved along the reduced flow, and the angle rates."""
    rp, s0 = ctx.cfg.reduced, ctx.points[0]
    traj = integrate_field(s0, spherical_rhs(rp), 2e-4, 4000, method="rk4",
                           observe=_energy_monitor(rp), monitor_names=("H",))
    E0 = float(traj.monitor_series("H")[0])
    _, d0, lt0 = first_integrals(s0, rp)
    J0 = actions_from_integrals(E0, lt0, d0, rp)
    drift = [(d - d0, lt - lt0)
             for _, d, lt in (first_integrals(st, rp) for st in traj.states[::100].tolist())]
    yield Entry("integral-drift", "azimuthal and total angular-momentum integrals hold along the flow",
                drift, 1e-6)

    states = list(traj.states.T.copy())  # six contiguous columns, as batch() gives
    states[2] = np.unwrap(states[2])
    angles = continuous_angles(states, J0, rp)
    t = traj.times
    A = np.vstack([t, np.ones_like(t)]).T
    fr = frequencies(J0, rp)
    rates = []
    for kk in range(3):
        coef, *_ = np.linalg.lstsq(A, np.unwrap(angles[kk]), rcond=None)
        rates.append(abs(coef[0] - fr[kk]) / abs(fr[kk]))
    yield Entry("angle-rates", "each angle advances linearly at its action frequency", rates, 1e-5)
    yield ("two displayed angle arguments were re-derived before use: the apsidal "
           "arcsin takes (1 - L~^2/(m k r)) S^2 over the turning factor (the "
           "displayed variant is not dimensionless), the latitude term carries no "
           "extra M factor and enters with a minus sign, and the node term carries "
           "1/M; the linear-rate test pins all three")


def _chart_reduction_oracle(ctx: Context):
    """Spherical Hamiltonian against the cartesian reduced one (linear order)."""
    rp = ctx.cfg.reduced
    gaps = []
    for s in ctx.points[:50]:
        r, theta, phi, p_r, p_t, p_p = s.coords
        td0 = p_t / (rp.m * r**2)
        pd0 = p_p / (rp.m * r**2 * math.sin(theta) ** 2)
        cart = spherical_to_cartesian(s)
        q, p = cart.coords[:3], cart.coords[3:]
        lam = ((0.0, -td0 * pd0 * math.sin(2 * phi), math.sqrt(2) * td0 * pd0 * math.cos(phi)),
               (td0 * pd0 * math.sin(2 * phi), 0.0, math.sqrt(2) * td0 * pd0 * math.sin(phi)),
               (-math.sqrt(2) * td0 * pd0 * math.cos(phi), -math.sqrt(2) * td0 * pd0 * math.sin(phi), 0.0))
        lq = [dot(row, q) for row in lam]
        h_cart = (dot(p, p) + dot(p, lq)) / (2.0 * rp.m) - rp.k / math.sqrt(dot(q, q))
        m2t = 1.0 + math.sqrt(2.0) * pd0 / rp.m
        u = 1.0 + (td0 / rp.m) * math.sin(2.0 * phi)
        h_sph = (p_r**2 + m2t * p_t**2 / r**2
                 + u * p_p**2 / (r**2 * math.sin(theta) ** 2)) / (2.0 * rp.m) - rp.k / r
        gaps.append(h_sph - h_cart)
    yield Entry("chart-reduction-oracle",
                "spherical energy equals the cartesian reduced energy at kinematically "
                "consistent rates once both quadratic rate terms are dropped", gaps, ctx.cfg.tol_bracket)
    yield ("the separability condition (vanishing quadratic form) is an order "
           "statement: the exact map matches at linear order in the rates, while "
           "the quadratic rate terms on the two sides differ by mass powers")


def _separability(ctx: Context):
    """The separability quadratic form at sample points."""
    qv = max(quadratic_condition_value(x, ctx.cfg.reduced)
             for x in sample_cartesian(10, ctx.cfg.seed + 2))
    yield (f"separability quadratic form at generic points: max value {qv:.3e} "
           f"(vanishes identically only when the polar rate is zero)")


def _azimuthal_regime(ctx: Context):
    """Maclaurin-regime deviation of the azimuthal action factor."""
    rp = ctx.cfg.reduced
    ratio = abs(rp.thetadot) / rp.m
    dev = max_abs(1.0 / math.sqrt(1.0 + ratio * math.sin(2.0 * phi)) - 1.0
                  for phi in np.linspace(0.0, 2.0 * math.pi, 97))
    bound = 0.5 * ratio + ratio**2
    yield Entry("azimuthal-action-regime",
                "azimuthal action factor deviates from one by at most half the rate ratio",
                0.0 if dev <= bound else dev - bound, 1e-12, lhs=dev, rhs=bound)


# -- hierarchy suite ----------------------------------------------------------


@dataclass(frozen=True)
class HierarchyContext(Context):
    weights: tuple  # N = (1, M, 1)
    aa_points: list  # action-angle sample points


def _hierarchy_context(cfg: VerifyConfig) -> HierarchyContext:
    return HierarchyContext(cfg, sample_delaunay(cfg.samples, cfg.seed), weight_vector(cfg.reduced),
                            sample_action_angle(max(12, cfg.samples // 8), cfg.seed + 1))


def _levels(ctx: HierarchyContext):
    cfg, points = ctx.cfg, ctx.points
    rp = cfg.reduced
    P0 = level_bivector(0, rp)
    X = dynamical_symmetry(0, rp)
    # each loop over points is one batch
    every, first20, first10 = batch(points), batch(points[:20]), batch(points[:10])
    subset = batch(points[: max(12, cfg.samples // 8)])
    for h in range(cfg.h_max + 1):
        Ph = corrupted_first_level_bivector(rp) if (cfg.negative_control and h == 1) \
            else level_bivector(h, rp)
        om = level_two_form(h, rp)
        Fh = ladder_energy_field(h, rp)
        Th = recursion_operator(h, rp)

        yield Entry(f"compatibility-h{h}", "level bivector is Schouten-compatible with the base one",
                    schouten_bracket(Ph, P0, subset), cfg.tol_bracket)
        for hp in range(1, h):
            Pp = level_bivector(hp, rp)
            yield Entry(f"compatibility-h{h}-h{hp}", "level bivectors are mutually Schouten-compatible",
                        schouten_bracket(Ph, Pp, subset), cfg.tol_bracket)
        yield Entry(f"pairing-h{h}", "flow contraction with the level form is minus dF_h",
                    flow_pairing_residual(X, om, Fh, every), cfg.tol_bracket)
        yield Entry(f"inverse-pair-h{h}", "level form and bivector are mutually inverse",
                    inverse_pair_residual(om(first20), Ph(first20)), cfg.tol_exact)
        yield Entry(f"torsion-h{h}", "recursion operator has vanishing torsion on the coordinate frame",
                    nijenhuis_torsion(Th, subset), cfg.tol_bracket)

        # eigenvalues constant along the flow: the flow's derivative of each
        # diagonal entry of T_h
        Xv, dT = X(first20), jet(Th, first20).d
        yield Entry(f"eigenvalue-invariance-h{h}", "recursion eigenvalues are annihilated by the flow",
                    [dot(Xv, dT[j][j]) for j in range(3)], cfg.tol_exact)

        # lambda bracket generates the same flow from F_h
        Xv = X(first10)
        gaps = [duals.value(lambda_bracket(Fh, ScalarField(lambda c, a=a: c[a]), first10, h, rp))
                - duals.value(Xv[a]) for a in range(6)]
        yield Entry(f"level-bracket-flow-h{h}", "level bracket of F_h generates the base flow", gaps, 1e-10)


def _recursion_semigroup(ctx: HierarchyContext):
    rp, first10 = ctx.cfg.reduced, batch(ctx.points[:10])
    T = [recursion_operator(h, rp).func(first10) for h in range(5)]
    gaps = [[[dot(T[h1][i], [T[h2][kk][j] for kk in range(6)]) - T[h1 + h2][i][j]
              for j in range(6)] for i in range(6)] for h1 in range(3) for h2 in range(3)]
    yield Entry("recursion-semigroup", "recursion operators compose by adding their levels",
                gaps, ctx.cfg.tol_exact)


def _transport(ctx: HierarchyContext):
    """Chart transport consistency in the action-angle chart."""
    cfg, aa = ctx.cfg, ctx.aa_points
    rp, tol = cfg.reduced, cfg.tol_transport
    Xaa = reduced_structures(rp)[2]
    P0aa = hierarchy_in_action_angle(0, rp)[0]
    every, first6, first10 = batch(aa), batch(aa[:6]), batch(aa[:10])
    for h in range(1, cfg.h_max + 1):
        Paa, Waa, Taa = hierarchy_in_action_angle(h, rp)
        Fh_aa = transported(ladder_energy_field(h, rp), rp)
        yield Entry(f"transport-pairing-h{h}",
                    "transported level form pairs with the in-chart flow and energy",
                    flow_pairing_residual(Xaa, Waa, Fh_aa, every), tol, point=aa[0].coords)
        yield Entry(f"transport-compatibility-h{h}", "transported bivectors stay Schouten-compatible",
                    schouten_bracket(Paa, P0aa, first6), tol, point=aa[0].coords)
        yield Entry(f"transport-torsion-h{h}", "transported recursion operator keeps vanishing torsion",
                    nijenhuis_torsion(Taa, first6), tol, point=aa[0].coords)

        # diff of the separately displayed component table against the transport
        tab = displayed_bivector_table(h, rp, first10)
        true = Paa(first10)
        off = [tab[i][j] - duals.value(true[i][j]) for i in range(6) for j in range(6)]
        yield Entry(f"table-diagonal-h{h}",
                    "displayed action-angle table agrees with the transport on the diagonal pairs",
                    [off[6 * i + 3 + i] for i in range(3)], tol, point=aa[0].coords)
        yield (f"level {h}: the displayed off-diagonal action-angle components "
               f"deviate from the exact transport by up to {max_abs(off):.3e}; the "
               f"transported tensors are used for every downstream check")
        tab = displayed_bivector_table(h, rp, list(aa[0].coords))
        yield Entry(f"table-internal-relation-h{h}", "displayed table satisfies its internal entry relation",
                    tab[1][3] - (tab[0][3] - tab[1][4]) / rp.M, cfg.tol_exact, point=aa[0].coords)


def _canonical_maps(ctx: HierarchyContext):
    """The canonical transformations."""
    rp, tol = ctx.cfg.reduced, ctx.cfg.tol_exact
    Dfwd = forward_jacobian(rp)
    omega_w = np.array(pair_matrix([1.0 / n for n in ctx.weights]))
    omega_aa = np.array(pair_matrix([1.0] * 3))
    yield Entry("delaunay-symplectic", "pullback of the weighted form is the canonical form",
                Dfwd.T @ omega_w @ Dfwd - omega_aa, tol)
    yield Entry("delaunay-roundtrip", "action-angle / Delaunay round trip is exact",
                [_gaps(x.coords, delaunay_to_action_angle(action_angle_to_delaunay(x, rp), rp).coords)
                 for x in ctx.aa_points[:10]], 1e-14)
    fwd = energy_rescaled_map(rp)
    jacobians = [np.array(duals.jacobian(fwd, list(x.coords))) for x in ctx.points[:10]]
    yield Entry("energy-rescaled-canonical", "the energy-rescaled third pair preserves the weighted form",
                [Jm.T @ omega_w @ Jm - omega_w for Jm in jacobians], 1e-11)


def _classical_elements(ctx: HierarchyContext):
    rp = ctx.cfg.reduced
    a = 1.3
    i3 = classical_delaunay(a, rp.m, rp.k)
    energy = ladder_energy_field(0, rp)([0.0, 0.0, i3, 0.0, 0.0, 0.0])
    yield Entry("classical-elements-energy", "classical element actions reproduce the orbit energy",
                energy - (-rp.k / (2.0 * a)), ctx.cfg.tol_exact)


def _eigenvalue_drift(ctx: HierarchyContext):
    """Eigenvalue drift along an integrated bound orbit."""
    rp = ctx.cfg.reduced
    T1 = recursion_operator(1, rp)
    s0 = sample_spherical_bound(1, ctx.cfg.seed + 2, rp)[0]
    traj = integrate_field(s0, spherical_rhs(rp), 1e-3, 10_000, method="rk4",
                           observe=_energy_monitor(rp), monitor_names=("H",))
    eigs = []
    for st, E in zip(traj.states[::50].tolist(), traj.monitor_series("H")[::50].tolist()):
        _, d, lt = first_integrals(st, rp)
        T = T1(delaunay_coords([*actions_from_integrals(E, lt, d, rp), 0.0, 0.0, 0.0], rp))
        eigs.append([T[j][j] for j in range(3)])
    yield Entry("eigenvalue-flow-drift",
                "recursion eigenvalues drift below tolerance along an integrated orbit",
                [[(a - b) / b for a, b in zip(eig, eigs[0])] for eig in eigs], ctx.cfg.tol_drift)


# -- master suite -------------------------------------------------------------


def _master_context(cfg: VerifyConfig) -> Context:
    return Context(cfg, sample_delaunay(max(50, cfg.samples // 2), cfg.seed))


def _ladder(ctx: Context):
    """The symmetry ladder and commutation."""
    rp = ctx.cfg.reduced
    x = batch(ctx.points[:25])
    ladder, commutation = [], []
    for i in range(0, 4):
        for mu in range(0, 4):
            Xi = dynamical_symmetry(i, rp)
            G = master_symmetry_field(i, mu, rp)
            Xt = dynamical_symmetry(i + mu, rp)
            ladder.append(_gaps(lie_bracket(Xi, G, x), Xt(x)))
            commutation.append(lie_bracket(Xi, Xt, x))
    yield Entry("symmetry-ladder", "bracket of X_i with Gamma_i,mu lands on X_{i+mu}",
                ladder, ctx.cfg.tol_bracket)
    yield Entry("symmetry-commutation", "generated symmetries commute with their sources",
                commutation, ctx.cfg.tol_bracket)
    yield ("the ladder bracket produces the angle-direction field (d/dphi^3); the "
           "action-direction reading of the same display does not satisfy the "
           "bracket and is recorded as a typographical variant")


def _degree_one(ctx: Context):
    rp = ctx.cfg.reduced
    XH = dynamical_symmetry(0, rp)
    x = batch(ctx.points[:10])
    second, smallest = [], math.inf
    for i in range(0, ctx.cfg.i_max + 1):
        for mu in range(0, 3):
            first = lie_bracket_field(XH, master_symmetry_field(i, mu, rp))
            smallest = min(smallest, *max_abs_per_point(first(x)).tolist())
            second.append(lie_bracket(XH, first, x))
    yield Entry("degree-one", "first bracket with the flow is nonzero, second vanishes",
                second, ctx.cfg.tol_bracket)
    yield f"smallest first-bracket magnitude over the sample: {smallest:.3e} (nonzero)"


def _master_pairing(ctx: Context):
    """Master-integral pairing on the zero-angle section."""
    rp = ctx.cfg.reduced
    section = sample_delaunay(max(50, ctx.cfg.samples // 2), ctx.cfg.seed + 1, zero_angles=True)
    on = [pairing_residual(0, mu, rp, batch(section[:50])) for mu in range(0, 4)]
    off = [pairing_residual(0, mu, rp, ctx.points[0]) for mu in range(0, 4)]
    yield Entry("master-integral-pairing", "master fields pair with their integrals where the angles vanish",
                on, 1e-10, point=section[0].coords)
    yield (f"off the zero-angle section the pairing one-form is not closed for "
           f"mu != 1 (residual up to {max_abs(r for mu, r in enumerate(off) if mu != 1):.3e} "
           f"at the first sample point); its differential carries (mu - 1) phi^j / I_j^mu "
           f"components, so no exact integral exists there")


def _conformal(ctx: Context):
    x = batch(ctx.points[:10])
    coefficients = [conformal_coefficients(i, ctx.cfg.reduced, x) for i in range(0, ctx.cfg.i_max + 1)]
    yield Entry("conformal-coefficients",
                "scaling fields act conformally with coefficients (-1/(3+i), 0, -2/(3+i))",
                [(cc.residual_P, cc.residual_P1, cc.residual_H) for cc in coefficients], 1e-10)


def _recursion_families(ctx: Context):
    """Recursion families against repeated operator application."""
    rp = ctx.cfg.reduced
    x = batch(ctx.points[:10])
    gaps = []
    for h in range(0, ctx.cfg.h_max + 1):
        Xcf = family_flow_field(h, rp)
        Xap = apply_recursion_to_vector(dynamical_symmetry(0, rp), h, rp)
        Gcf = family_gamma_field(0, h, rp)
        Gap = apply_recursion_to_vector(master_symmetry_field(0, 0, rp), h, rp)
        flow = Xcf(x)
        gaps += [_gaps(flow, Xap(x)), _gaps(Gcf(x), Gap(x))]
        g = gradient(family_energy_field(h, rp), x)
        gaps.append(duals.value(g[2]) - flow[5])  # m k^2 I3^(h-3)
        gaps.append([duals.value(g[a]) for a in (0, 1, 3, 4, 5)])
    yield Entry("recursion-families",
                "closed-form families equal repeated recursion application, and the "
                "family energies differentiate to the family differentials", gaps, 1e-10)


def _scaling_ledger(ctx: Context):
    cfg = ctx.cfg
    yield Entry("scaling-ledger", "every scaling relation holds with its displayed rational coefficient",
                [e.residual for e in scaling_ledger(cfg.reduced, batch(ctx.points[:50]),
                                                    cfg.i_max, min(cfg.h_max, 2), cfg.l_max)],
                cfg.tol_bracket)


def _coefficient_patterns(ctx: Context):
    """Coefficient pattern consistency (exact rational comparison)."""
    inconsistent, gaps = 0, []
    for i in range(0, ctx.cfg.i_max + 1):
        for h in range(0, 3):
            for l in range(0, 3):
                for row in coefficient_pattern_table(i, h, l):
                    if row.identity != "flow family":
                        gaps.append(float(row.explicit - row.pattern))
                    elif not row.consistent:
                        inconsistent += 1
    yield Entry("coefficient-patterns",
                "general coefficient patterns reproduce the explicit fractions "
                "(flow family handled separately)", gaps, 0.0)
    yield (f"the displayed general pattern for the flow family gives -(l+1)/(3+i) "
           f"while the bracket yields -(3-l)/(3+i); they coincide only at l = 1 "
           f"({inconsistent} of the tested index triples differ); the numeric "
           f"ledger follows the bracket")


SUITES = {suite.name: suite for suite in (
    Suite("brackets", _brackets_context, (
        _bracket_patterns, _structure_brackets, _beta_table, _symplectic_inverse,
        _random_brackets, _equations_of_motion)),
    Suite("algebra", _algebra_context, (
        _bracket_closed_forms, _pairwise_tables, _closure_fits,
        _generator_patterns, _algebra_jacobi, _involution_search, _conservation,
        _flow_bracket_consistency)),
    Suite("action-angle", _action_angle_context, (
        _action_identities, _chart_structures, _reduced_flow, _chart_reduction_oracle,
        _separability, _azimuthal_regime)),
    Suite("hierarchy", _hierarchy_context, (
        _levels, _recursion_semigroup, _transport, _canonical_maps, _classical_elements,
        _eigenvalue_drift)),
    Suite("master", _master_context, (
        _ladder, _degree_one, _master_pairing, _conformal, _recursion_families,
        _scaling_ledger, _coefficient_patterns)),
)}
SUITE_NAMES = tuple(SUITES)
