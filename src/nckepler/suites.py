"""The five verification suites behind the CLI and the acceptance tests.

Every suite evaluates a battery of identities at seeded sample points and
returns a :class:`~nckepler.report.SuiteReport` whose entries carry the
achieved residual and the tolerance it was held to.  Interpretation notes
record the convention findings that the numerics arbitrated, so reports
document rather than hide the ambiguities of the source material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import duals
from .charts import (
    action_angle_to_delaunay,
    delaunay_to_action_angle,
    forward_jacobian,
    spherical_to_cartesian,
)
from .deformation import (
    DeformationParams,
    beta_bracket_table,
    canonical_bracket,
    coordinate_function,
    nc_bracket,
    nc_bracket_field,
    nc_symplectic_structures,
    primed_coordinate_function,
)
from .errors import config_int, config_number, config_object
from .geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    bivector_bracket,
    flow_pairing_residual,
    gradient,
    inverse_pair_residual,
    max_abs,
    nijenhuis_torsion,
    pair_matrix,
    schouten_bracket,
)
from .hierarchy import (
    OrbitalElements,
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
    random_polynomial_field,
    sample_action_angle,
    sample_cartesian,
    sample_deformations,
    sample_delaunay,
    sample_spherical_bound,
)
from .symmetry import (
    EnergySign,
    angular_momentum_field,
    bracket_H_with_A,
    bracket_H_with_L,
    closure_fit,
    generator_sets,
    involution_parameter_search,
    lrl_field,
    pairwise_bracket_table,
    structure_matrices,
)

SUITE_NAMES = ("brackets", "algebra", "action-angle", "hierarchy", "master")


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


# ---------------------------------------------------------------------------
# brackets suite
# ---------------------------------------------------------------------------


def _new_report(name: str) -> SuiteReport:
    rep = SuiteReport(name)
    for n in GENERAL_NOTES:
        rep.note(n)
    return rep


def suite_brackets(cfg: VerifyConfig) -> SuiteReport:
    rep = _new_report("brackets")
    params = cfg.deformation
    if params.is_commutative:
        params = sample_deformations(1, cfg.seed + 13)[0]
    points = sample_cartesian(cfg.samples, cfg.seed, params)
    coord = [coordinate_function(i) for i in range(6)]

    worst = {"pq": 0.0, "qq": 0.0, "pp": 0.0}
    for x in points:
        for i in range(3):
            for j in range(3):
                v = nc_bracket(coord[3 + i], coord[j], x, params)
                expect = (1.0 / params.theta[j]) if i == j else 0.0
                worst["pq"] = max(worst["pq"], abs(v - expect))
                worst["qq"] = max(worst["qq"], abs(nc_bracket(coord[i], coord[j], x, params)))
                worst["pp"] = max(
                    worst["pp"], abs(nc_bracket(coord[3 + i], coord[3 + j], x, params))
                )
    x0 = points[0].coords
    rep.add("bracket-pattern-pq", "{p_i, q^j} = theta_j^{-1} delta_ij", x0,
            worst["pq"], 0.0, worst["pq"], cfg.tol_exact)
    rep.add("bracket-pattern-qq", "{q^i, q^j} = 0", x0, worst["qq"], 0.0,
            worst["qq"], cfg.tol_exact)
    rep.add("bracket-pattern-pp", "{p_i, p_j} = 0", x0, worst["pp"], 0.0,
            worst["pp"], cfg.tol_exact)

    sm = structure_matrices(params)
    primed = [primed_coordinate_function(i, params) for i in range(6)]
    wF = wD = wE = 0.0
    for x in points[: max(10, cfg.samples // 10)]:
        for i in range(3):
            for j in range(3):
                wF = max(wF, abs(nc_bracket(primed[3 + i], primed[j], x, params) - sm.F[i][j]))
                wD = max(wD, abs(nc_bracket(primed[3 + i], primed[3 + j], x, params) - sm.D[i][j]))
                wE = max(wE, abs(nc_bracket(primed[i], primed[j], x, params) - sm.E[i][j]))
    rep.add("structure-F", "weighted bracket {p'_i, q'^j} equals F_ij", x0, wF, 0.0, wF, cfg.tol_exact)
    rep.add("structure-D", "weighted bracket {p'_i, p'_j} equals D_ij", x0, wD, 0.0, wD, cfg.tol_exact)
    rep.add("structure-E", "weighted bracket {q'^i, q'^j} equals E_ij", x0, wE, 0.0, wE, cfg.tol_exact)

    table = beta_bracket_table(params)
    wq = wqp = wp = 0.0
    for x in points[:10]:
        for i in range(3):
            for j in range(3):
                wq = max(wq, abs(canonical_bracket(primed[i], primed[j], x) - table.qq[i][j]))
                wqp = max(wqp, abs(canonical_bracket(primed[i], primed[3 + j], x) - table.qp[i][j]))
                wp = max(wp, abs(canonical_bracket(primed[3 + i], primed[3 + j], x) - table.pp[i][j]))
    rep.add("beta-table-qq", "canonical {q'_i, q'_j} reproduces the declared qq block",
            x0, wq, 0.0, wq, cfg.tol_exact)
    rep.add("beta-table-qp", "canonical {q'_i, p'_j} reproduces identity + gamma",
            x0, wqp, 0.0, wqp, cfg.tol_exact)
    rep.add("beta-table-pp", "canonical {p'_i, p'_j} reproduces the declared pp block",
            x0, wp, 0.0, wp, cfg.tol_exact)

    omega, bivector = nc_symplectic_structures(params)
    res = inverse_pair_residual(omega(points[0]), bivector(points[0]))
    rep.add("symplectic-inverse", "flat/sharp composition of the pair is the identity",
            x0, res, 0.0, res, 1e-14)

    rng = np.random.default_rng(cfg.seed + 1)
    wb = 0.0
    for _ in range(50):
        f = random_polynomial_field(rng, Chart.CARTESIAN)
        g = random_polynomial_field(rng, Chart.CARTESIAN)
        x = points[int(rng.integers(0, len(points)))]
        v1 = nc_bracket(f, g, x, params)
        v2 = duals.value(bivector_bracket(bivector, f, g)(x))
        wb = max(wb, abs(v1 - v2))
    rep.add("bivector-bracket", "bivector-induced bracket equals the weighted bracket",
            x0, wb, 0.0, wb, cfg.tol_exact)

    wj = 0.0
    for _ in range(12):
        f = random_polynomial_field(rng, Chart.CARTESIAN)
        g = random_polynomial_field(rng, Chart.CARTESIAN)
        h = random_polynomial_field(rng, Chart.CARTESIAN)
        x = points[int(rng.integers(0, len(points)))]
        s = (
            nc_bracket(f, nc_bracket_field(g, h, params), x, params)
            + nc_bracket(g, nc_bracket_field(h, f, params), x, params)
            + nc_bracket(h, nc_bracket_field(f, g, params), x, params)
        )
        wj = max(wj, abs(s))
    rep.add("jacobi", "cyclic bracket sum vanishes for smooth observables",
            x0, wj, 0.0, wj, 1e-10)

    # equations-of-motion equivalence across random deformation sets
    defs = sample_deformations(cfg.deformation_sets, cfg.seed + 2)
    w_closed = w_primed = w_iota = 0.0
    for pset in defs:
        pts = sample_cartesian(max(10, cfg.samples // len(defs)), cfg.seed + 3, pset)
        X = hamiltonian_vector_field_nc(pset)
        omega_p, _ = nc_symplectic_structures(pset)
        Hf = hamiltonian_field(pset)
        for x in pts:
            cf = hamilton_rhs_closed_form(x, pset)
            bf = [duals.value(v) for v in X(x)]
            pf = hamilton_rhs_primed_form(x, pset)
            w_closed = max(w_closed, max(abs(cf[i] - bf[i]) for i in range(6)))
            w_primed = max(w_primed, max(abs(cf[i] - pf[i]) for i in range(6)))
            w_iota = max(w_iota, flow_pairing_residual(X, omega_p, Hf, x))
    rep.add("eom-closed-vs-bivector",
            "closed-form equations of motion equal the bivector flow",
            x0, w_closed, 0.0, w_closed, 1e-10)
    rep.add("eom-primed-vs-closed",
            "primed-coordinate form of the flow equals the unprimed form",
            x0, w_primed, 0.0, w_primed, 1e-10)
    rep.add("eom-interior-product",
            "contraction of the flow with the symplectic form is minus dH",
            x0, w_iota, 0.0, w_iota, 1e-10)
    rep.note(
        "the excluded-diagonal reading of the double sums matches the bracket "
        "flow exactly; no discrepancy to flag"
    )
    rep.note(
        "the primed momentum equation requires an overall sign opposite to its "
        "displayed form to match the bracket flow (the displayed sign fails the "
        "commutative limit)"
    )
    return rep


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------


def suite_algebra(cfg: VerifyConfig) -> SuiteReport:
    rep = _new_report("algebra")
    params = cfg.deformation
    if params.is_commutative:
        params = sample_deformations(1, cfg.seed + 17)[0]
    comm = DeformationParams(mass=params.mass, k=params.k)
    points = sample_cartesian(cfg.samples, cfg.seed, params)
    x0 = points[0].coords

    Hf = hamiltonian_field(params)
    Lf = [angular_momentum_field(params, i) for i in range(3)]
    Af = [lrl_field(params, i) for i in range(3)]
    wL = wA = 0.0
    for x in points:
        for i in range(3):
            wL = max(wL, abs(nc_bracket(Hf, Lf[i], x, params) - bracket_H_with_L(x, params, i)))
            wA = max(wA, abs(nc_bracket(Hf, Af[i], x, params) - bracket_H_with_A(x, params, i)))
    rep.add("bracket-H-L", "closed form of {H, L_i} matches autodiff at generic deformation",
            x0, wL, 0.0, wL, cfg.tol_bracket)
    rep.add("bracket-H-A", "closed form of {H, A_i} matches autodiff at generic deformation",
            x0, wA, 0.0, wA, cfg.tol_bracket)
    rep.note(
        "the middle group of the {H, A_i} closed form pairs its coefficient row "
        "with the Levi-Civita index of the momentum factor; pairing it with the "
        "angular-momentum index instead fails the autodiff cross-check"
    )

    w_chain = 0.0
    for x in points[: max(10, cfg.samples // 10)]:
        t = pairwise_bracket_table(x, params)
        for block in t.values():
            for e in block.values():
                w_chain = max(w_chain, e.ad_vs_chain)
    rep.add("pairwise-chain", "structure-matrix route equals autodiff for every pairwise bracket",
            x0, w_chain, 0.0, w_chain, cfg.tol_bracket)

    comm_points = sample_cartesian(cfg.samples, cfg.seed + 4, comm, energy_sign="minus")
    w_closed = 0.0
    gen_resid = 0.0
    for x in comm_points:
        t = pairwise_bracket_table(x, comm)
        for block in t.values():
            for e in block.values():
                w_closed = max(w_closed, e.ad_vs_closed)
    for x in points[:10]:
        t = pairwise_bracket_table(x, params)
        gen_resid = max(gen_resid, max(e.ad_vs_closed for e in t["LA"].values()))
    rep.add("pairwise-closed-commutative",
            "structure-constant bracket table matches autodiff in the commutative limit",
            comm_points[0].coords, w_closed, 0.0, w_closed, cfg.tol_bracket)
    rep.note(
        f"at generic deformations the structure-constant pairwise forms deviate "
        f"from autodiff (max residual {gen_resid:.3e} over sampled points); they "
        f"presuppose the involution conditions and are asserted only where those "
        f"hold (the commutative limit)"
    )

    fit_minus = closure_fit(comm_points[:30], comm, EnergySign.MINUS)
    rep.add("so4-closure", "bound-region closure fit follows the so(4) pattern",
            comm_points[0].coords,
            fit_minus.coefficient_GG, fit_minus.coefficient_LL,
            max(fit_minus.residual, abs(fit_minus.coefficient_GG - fit_minus.coefficient_LL),
                abs(fit_minus.coefficient_LG - fit_minus.coefficient_LL)),
            1e-8)
    plus_points = sample_cartesian(30, cfg.seed + 5, comm, energy_sign="plus")
    fit_plus = closure_fit(plus_points, comm, EnergySign.PLUS)
    rep.add("so13-closure", "positive-energy closure fit flips the scaled-vector sign",
            plus_points[0].coords,
            fit_plus.coefficient_GG, -fit_plus.coefficient_LL,
            max(fit_plus.residual, abs(fit_plus.coefficient_GG + fit_plus.coefficient_LL),
                abs(fit_plus.coefficient_LG - fit_plus.coefficient_LL)),
            1e-8)

    for kind, pts in (("so4", comm_points), ("so13", plus_points)):
        gs = generator_sets(comm, kind)
        x = pts[0]
        mat = gs.evaluate(x)
        sym = 1.0 if kind == "so4" else -1.0
        resid = max(abs(mat[3][3]), max(abs(mat[h][3] + sym * mat[3][h]) for h in range(3)))
        rep.add(f"{kind}-generator-pattern",
                f"{kind} generator matrix keeps its corner pattern (zero corner, "
                f"{'anti' if kind == 'so4' else ''}symmetric boundary row)",
                x.coords, resid, 0.0, resid, cfg.tol_exact)

    # Jacobi identity on the spanned algebra
    rng = np.random.default_rng(cfg.seed + 6)
    basis = [angular_momentum_field(comm, i) for i in range(3)] + [lrl_field(comm, i) for i in range(3)]
    wj = 0.0
    for _ in range(10):
        i, j, k = rng.integers(0, 6, size=3)
        x = comm_points[int(rng.integers(0, len(comm_points)))]
        s = (
            nc_bracket(basis[i], nc_bracket_field(basis[j], basis[k], comm), x, comm)
            + nc_bracket(basis[j], nc_bracket_field(basis[k], basis[i], comm), x, comm)
            + nc_bracket(basis[k], nc_bracket_field(basis[i], basis[j], comm), x, comm)
        )
        wj = max(wj, abs(s))
    rep.add("algebra-jacobi", "cyclic bracket sum over the conserved basis vanishes",
            comm_points[0].coords, wj, 0.0, wj, cfg.tol_bracket)

    search = involution_parameter_search(cfg.seed, 300)
    rep.note(
        f"involution-condition search: feasible instance found = {search.found}; "
        f"best residual {search.best_residual:.3e}; {search.note}"
    )

    # conservation along commutative orbits (circular and e = 0.6)
    m, k = comm.mass, comm.k
    # eccentric orbit starts at pericenter: r = a(1-e) with e = 0.6, a = 1,
    # v_peri = sqrt((k/m a) (1+e)/(1-e))
    a_el, e_el = 1.0, 0.6
    r_peri = a_el * (1.0 - e_el)
    v_peri = math.sqrt(k / (m * a_el) * (1.0 + e_el) / (1.0 - e_el))
    runs = {
        "circular": PhasePoint((1.0, 0.0, 0.0, 0.0, math.sqrt(m * k), 0.0), Chart.CARTESIAN),
        "eccentric": PhasePoint((r_peri, 0.0, 0.0, 0.0, m * v_peri, 0.0), Chart.CARTESIAN),
    }
    for label, x0_run in runs.items():
        traj = integrate(x0_run, comm, dt=1e-3, n_steps=10_000, method="rk4",
                         monitors=MONITOR_NAMES)
        if not traj.completed:
            rep.add(f"conservation-{label}", "orbit integration completed",
                    x0_run.coords, 0.0, 1.0, 1.0, 0.5)
            continue
        hd = traj.drift("H")
        rep.add(f"conservation-{label}-H", f"relative energy drift on the {label} orbit",
                x0_run.coords, hd, 0.0, hd, cfg.tol_drift)
        wlm = max(traj.drift(f"L{i + 1}") for i in range(3))
        wam = max(traj.drift(f"A{i + 1}") for i in range(3))
        rep.add(f"conservation-{label}-L", f"angular momentum drift on the {label} orbit",
                x0_run.coords, wlm, 0.0, wlm, 1e-7)
        rep.add(f"conservation-{label}-A", f"Runge-Lenz drift on the {label} orbit",
                x0_run.coords, wam, 0.0, wam, 1e-7)

    # deformed case: monitored dL/dt equals the closed-form bracket along the flow
    x_nc = sample_cartesian(1, cfg.seed + 7, params, energy_sign="minus")[0]
    dt = 2e-4
    traj = integrate(x_nc, params, dt=dt, n_steps=400, method="rk4", monitors=("L1", "L2", "L3"))
    w_flow = 0.0
    nonzero = 0.0
    for idx in range(5, len(traj.states) - 5, 25):
        x = traj.states[idx]
        for i in range(3):
            s = traj.monitor_series(f"L{i + 1}")
            fd = (-s[idx + 2] + 8.0 * s[idx + 1] - 8.0 * s[idx - 1] + s[idx - 2]) / (12.0 * dt)
            cf = bracket_H_with_L(x, params, i)
            nonzero = max(nonzero, abs(cf))
            scale = max(abs(cf), 1e-3)
            w_flow = max(w_flow, abs(fd - cf) / scale)
    rep.add("flow-bracket-consistency",
            "time derivative of monitored L_i along the flow equals {H, L_i}",
            x_nc.coords, w_flow, 0.0, w_flow, 1e-5)
    rep.note(
        f"at generic deformations the monitored angular momentum genuinely "
        f"drifts (max |{{H, L_i}}| = {nonzero:.3e} along the sampled flow)"
    )
    return rep


# ---------------------------------------------------------------------------
# action-angle suite
# ---------------------------------------------------------------------------


def suite_action_angle(cfg: VerifyConfig) -> SuiteReport:
    rep = _new_report("action-angle")
    rp = cfg.reduced
    states = sample_spherical_bound(max(20, cfg.samples // 2), cfg.seed, rp)
    x0 = states[0].coords

    w_round = w_freq = w_iso = w_det = 0.0
    w_jtheta = w_jr = 0.0
    for s in states:
        E = spherical_hamiltonian(s, rp)
        _, d, lt = first_integrals(s, rp)
        J = actions_from_integrals(E, lt, d, rp)
        w_round = max(w_round, abs(energy_from_actions(J, rp) - E))
        fr = frequencies(J, rp)
        w_freq = max(w_freq, abs(fr[0] - fr[2]), abs(fr[1] - rp.M * fr[0]))
        w_iso = max(w_iso, abs(fr[0] - isochronous_derivative(E, rp)))
        w_det = max(w_det, abs(kolmogorov_determinant(J, rp)))
        w_jtheta = max(w_jtheta, abs(polar_action_quadrature(lt, d, rp) - J[1]))
        w_jr = max(w_jr, abs(radial_action_quadrature(E, lt, rp) - J[0]))
    rep.add("energy-roundtrip", "actions reproduce the energy they were built from",
            x0, w_round, 0.0, w_round, cfg.tol_exact)
    rep.add("frequency-degeneracy",
            "energy depends on the actions only through their weighted sum",
            x0, w_freq, 0.0, w_freq, cfg.tol_exact)
    rep.add("isochronous-derivative",
            "radial frequency equals (-2E)^{3/2} / (k sqrt(m))",
            x0, w_iso, 0.0, w_iso, cfg.tol_exact)
    rep.add("action-hessian-degenerate",
            "determinant of the action Hessian of the energy vanishes",
            x0, w_det, 0.0, w_det, 1e-14)
    rep.add("polar-action-quadrature",
            "loop quadrature of the polar action matches (L~ - D)/M",
            x0, w_jtheta, 0.0, w_jtheta, 1e-6)
    rep.add("radial-action-quadrature",
            "loop quadrature of the radial action matches -L~ + mk/sqrt(-2mE)",
            x0, w_jr, 0.0, w_jr, 1e-6)

    # canonical structures on the chart
    bivector, omega, flow = reduced_structures(rp)
    aa_points = sample_action_angle(20, cfg.seed + 1)
    H_aa = ScalarField(Chart.ACTION_ANGLE, lambda c: energy_from_actions(c[:3], rp), name="H")
    w_iota = w_inv = w_ann = 0.0
    for x in aa_points:
        w_iota = max(w_iota, flow_pairing_residual(flow, omega, H_aa, x))
        w_inv = max(w_inv, inverse_pair_residual(omega(x), bivector(x)))
        w_ann = max(w_ann, max(abs(duals.value(v)) for v in flow(x)[:3]))
    rep.add("aa-interior-product", "flow contraction with the chart form is minus dH",
            x0, w_iota, 0.0, w_iota, 1e-11)
    rep.add("aa-inverse-pair", "chart bivector and form are mutually inverse",
            x0, w_inv, 0.0, w_inv, cfg.tol_exact)
    rep.add("aa-action-conservation", "flow has no action components",
            x0, w_ann, 0.0, w_ann, cfg.tol_exact)

    # integrals conserved along the reduced flow + angle rates
    rhs = spherical_rhs(rp)
    s0 = states[0]
    dt, n = 2e-4, 4000
    traj = integrate_field(s0, rhs, dt, n, method="rk4",
                           observe=lambda c: (None, spherical_hamiltonian(c, rp), ()))
    E0 = spherical_hamiltonian(s0, rp)
    _, d0, lt0 = first_integrals(s0, rp)
    J0 = actions_from_integrals(E0, lt0, d0, rp)
    w_int = 0.0
    for st in traj.states[::100]:
        _, d, lt = first_integrals(st, rp)
        w_int = max(w_int, abs(d - d0), abs(lt - lt0))
    rep.add("integral-drift", "azimuthal and total angular-momentum integrals hold along the flow",
            x0, w_int, 0.0, w_int, 1e-6)

    phi_series = np.unwrap([st.coords[2] for st in traj.states])
    angles = np.array([
        continuous_angles(st, J0, rp, phi_unwrapped=float(pu))
        for st, pu in zip(traj.states, phi_series)
    ])
    t = np.array(traj.times)
    fr = frequencies(J0, rp)
    w_rate = 0.0
    for kk in range(3):
        series = np.unwrap(angles[:, kk])
        A = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(A, series, rcond=None)
        w_rate = max(w_rate, abs(coef[0] - fr[kk]) / abs(fr[kk]))
    rep.add("angle-rates", "each angle advances linearly at its action frequency",
            x0, w_rate, 0.0, w_rate, 1e-5)
    rep.note(
        "two displayed angle arguments were re-derived before use: the apsidal "
        "arcsin takes (1 - L~^2/(m k r)) S^2 over the turning factor (the "
        "displayed variant is not dimensionless), the latitude term carries no "
        "extra M factor and enters with a minus sign, and the node term carries "
        "1/M; the linear-rate test pins all three"
    )

    # spherical Hamiltonian vs the cartesian reduced Hamiltonian (linear order)
    w_chart = 0.0
    for s in states[:50]:
        r, theta, phi, p_r, p_t, p_p = s.coords
        td0 = p_t / (rp.m * r**2)
        pd0 = p_p / (rp.m * r**2 * math.sin(theta) ** 2)
        cart = spherical_to_cartesian(s)
        q, p = cart.coords[:3], cart.coords[3:]
        lam = ((0.0, -td0 * pd0 * math.sin(2 * phi), math.sqrt(2) * td0 * pd0 * math.cos(phi)),
               (td0 * pd0 * math.sin(2 * phi), 0.0, math.sqrt(2) * td0 * pd0 * math.sin(phi)),
               (-math.sqrt(2) * td0 * pd0 * math.cos(phi), -math.sqrt(2) * td0 * pd0 * math.sin(phi), 0.0))
        lq = [sum(lam[i][j] * q[j] for j in range(3)) for i in range(3)]
        h_cart = (sum(v * v for v in p) + sum(p[i] * lq[i] for i in range(3))) / (2.0 * rp.m) \
            - rp.k / math.sqrt(sum(v * v for v in q))
        m2t = 1.0 + math.sqrt(2.0) * pd0 / rp.m
        u = 1.0 + (td0 / rp.m) * math.sin(2.0 * phi)
        h_sph = (p_r**2 + m2t * p_t**2 / r**2
                 + u * p_p**2 / (r**2 * math.sin(theta) ** 2)) / (2.0 * rp.m) - rp.k / r
        w_chart = max(w_chart, abs(h_sph - h_cart))
    rep.add("chart-reduction-oracle",
            "spherical energy equals the cartesian reduced energy at kinematically "
            "consistent rates once both quadratic rate terms are dropped",
            x0, w_chart, 0.0, w_chart, cfg.tol_bracket)
    rep.note(
        "the separability condition (vanishing quadratic form) is an order "
        "statement: the exact map matches at linear order in the rates, while "
        "the quadratic rate terms on the two sides differ by mass powers"
    )

    # separability quadratic form reported at sample points
    cart_pts = sample_cartesian(10, cfg.seed + 2)
    qv = max(quadratic_condition_value(x, rp) for x in cart_pts)
    rep.note(f"separability quadratic form at generic points: max value {qv:.3e} "
             f"(vanishes identically only when the polar rate is zero)")

    # Maclaurin-regime deviation of the azimuthal action factor
    ratio = abs(rp.thetadot) / rp.m
    worst_dev = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 97):
        dev = abs(1.0 / math.sqrt(1.0 + ratio * math.sin(2.0 * phi)) - 1.0)
        worst_dev = max(worst_dev, dev)
    bound = 0.5 * ratio + ratio**2
    rep.add("azimuthal-action-regime",
            "azimuthal action factor deviates from one by at most half the rate ratio",
            x0, worst_dev, bound, max(0.0, worst_dev - bound), 1e-12)
    return rep


# ---------------------------------------------------------------------------
# hierarchy suite
# ---------------------------------------------------------------------------


def suite_hierarchy(cfg: VerifyConfig) -> SuiteReport:
    rep = _new_report("hierarchy")
    rp = cfg.reduced
    points = sample_delaunay(cfg.samples, cfg.seed)
    x0 = points[0].coords
    P0 = level_bivector(0, rp)
    X = dynamical_symmetry(0, rp)
    N = weight_vector(rp)
    levels = list(range(0, cfg.h_max + 1))
    subset = points[: max(12, cfg.samples // 8)]

    for h in levels:
        Ph = corrupted_first_level_bivector(rp) if (cfg.negative_control and h == 1) \
            else level_bivector(h, rp)
        om = level_two_form(h, rp)
        Fh = ladder_energy_field(h, rp)
        Th = recursion_operator(h, rp)

        w = max(max_abs(schouten_bracket(Ph, P0, x)) for x in subset)
        rep.add(f"compatibility-h{h}", "level bivector is Schouten-compatible with the base one",
                x0, w, 0.0, w, cfg.tol_bracket)
        for hp in range(1, h):
            Pp = level_bivector(hp, rp)
            w = max(max_abs(schouten_bracket(Ph, Pp, x)) for x in subset)
            rep.add(f"compatibility-h{h}-h{hp}",
                    "level bivectors are mutually Schouten-compatible",
                    x0, w, 0.0, w, cfg.tol_bracket)

        w = max(flow_pairing_residual(X, om, Fh, x) for x in points)
        rep.add(f"pairing-h{h}", "flow contraction with the level form is minus dF_h",
                x0, w, 0.0, w, cfg.tol_bracket)

        w = max(inverse_pair_residual(om(x), Ph(x)) for x in points[:20])
        rep.add(f"inverse-pair-h{h}", "level form and bivector are mutually inverse",
                x0, w, 0.0, w, cfg.tol_exact)

        w = 0.0
        for x in subset:
            w = max(w, max_abs(nijenhuis_torsion(Th, x)))
        rep.add(f"torsion-h{h}", "recursion operator has vanishing torsion on the coordinate frame",
                x0, w, 0.0, w, cfg.tol_bracket)

        # eigenvalues constant along the flow (pointwise directional derivative)
        w = 0.0
        for x in points[:20]:
            Xv = X(x)
            for j in range(3):
                eig = ScalarField(Chart.DELAUNAY, lambda c, j=j: N[j] ** h * c[j] ** h, name="eig")
                deig = gradient(eig, x)
                w = max(w, abs(sum(duals.value(Xv[a]) * duals.value(deig[a]) for a in range(6))))
        rep.add(f"eigenvalue-invariance-h{h}",
                "recursion eigenvalues are annihilated by the flow",
                x0, w, 0.0, w, cfg.tol_exact)

        # lambda bracket generates the same flow from F_h
        w = 0.0
        for x in points[:10]:
            for a in range(6):
                coord_f = ScalarField(Chart.DELAUNAY, lambda c, a=a: c[a], name=f"x{a}")
                v = duals.value(lambda_bracket(Fh, coord_f, x, h, rp))
                w = max(w, abs(v - duals.value(X(x)[a])))
        rep.add(f"level-bracket-flow-h{h}",
                "level bracket of F_h generates the base flow",
                x0, w, 0.0, w, 1e-10)

    # recursion operator semigroup
    w = 0.0
    for x in points[:10]:
        for h1 in range(0, 3):
            for h2 in range(0, 3):
                T1 = recursion_operator(h1, rp).func(list(x.coords))
                T2 = recursion_operator(h2, rp).func(list(x.coords))
                T12 = recursion_operator(h1 + h2, rp).func(list(x.coords))
                prod = [[sum(T1[i][kk] * T2[kk][j] for kk in range(6)) for j in range(6)]
                        for i in range(6)]
                w = max(w, max(abs(prod[i][j] - T12[i][j]) for i in range(6) for j in range(6)))
    rep.add("recursion-semigroup", "recursion operators compose by adding their levels",
            x0, w, 0.0, w, cfg.tol_exact)

    # chart transport consistency in the action-angle chart
    aa_points = sample_action_angle(max(12, cfg.samples // 8), cfg.seed + 1)
    Xaa = reduced_structures(rp)[2]
    for h in levels[1:]:
        Paa, Waa, Taa = hierarchy_in_action_angle(h, rp)
        Fh_aa = ladder_energy_field(h, rp, chart=Chart.ACTION_ANGLE)
        w_pair = w_compat = w_tors = 0.0
        P0aa = hierarchy_in_action_angle(0, rp)[0]
        for x in aa_points:
            w_pair = max(w_pair, flow_pairing_residual(Xaa, Waa, Fh_aa, x))
        for x in aa_points[:6]:
            w_compat = max(w_compat, max_abs(schouten_bracket(Paa, P0aa, x)))
            w_tors = max(w_tors, max_abs(nijenhuis_torsion(Taa, x)))
        rep.add(f"transport-pairing-h{h}",
                "transported level form pairs with the in-chart flow and energy",
                aa_points[0].coords, w_pair, 0.0, w_pair, cfg.tol_transport)
        rep.add(f"transport-compatibility-h{h}",
                "transported bivectors stay Schouten-compatible",
                aa_points[0].coords, w_compat, 0.0, w_compat, cfg.tol_transport)
        rep.add(f"transport-torsion-h{h}",
                "transported recursion operator keeps vanishing torsion",
                aa_points[0].coords, w_tors, 0.0, w_tors, cfg.tol_transport)

        # diff of the separately displayed component table against the transport
        diag = off = 0.0
        for x in aa_points[:10]:
            tab = displayed_bivector_table(h, rp, list(x.coords))
            true = hierarchy_in_action_angle(h, rp)[0](x)
            for i in range(3):
                diag = max(diag, abs(tab[i][3 + i] - duals.value(true[i][3 + i])))
            off = max(off, max(abs(tab[i][j] - duals.value(true[i][j]))
                               for i in range(6) for j in range(6)))
        rep.add(f"table-diagonal-h{h}",
                "displayed action-angle table agrees with the transport on the "
                "diagonal pairs",
                aa_points[0].coords, diag, 0.0, diag, cfg.tol_transport)
        rep.note(
            f"level {h}: the displayed off-diagonal action-angle components "
            f"deviate from the exact transport by up to {off:.3e}; the "
            f"transported tensors are used for every downstream check"
        )
        tab = displayed_bivector_table(h, rp, list(aa_points[0].coords))
        rel = abs(tab[1][3] - (tab[0][3] - tab[1][4]) / rp.M)
        rep.add(f"table-internal-relation-h{h}",
                "displayed table satisfies its internal entry relation",
                aa_points[0].coords, rel, 0.0, rel, cfg.tol_exact)

    # canonical transformations
    w_lin = 0.0
    Dfwd = forward_jacobian(rp)
    omega_w = np.array(pair_matrix([1.0 / n for n in N]))
    omega_aa = np.array(pair_matrix([1.0] * 3))
    pull = Dfwd.T @ omega_w @ Dfwd
    w_lin = float(np.max(np.abs(pull - omega_aa)))
    rep.add("delaunay-symplectic", "pullback of the weighted form is the canonical form",
            x0, w_lin, 0.0, w_lin, cfg.tol_exact)

    w_round = 0.0
    for x in aa_points[:10]:
        back = delaunay_to_action_angle(action_angle_to_delaunay(x, rp), rp)
        w_round = max(w_round, max(abs(a - b) for a, b in zip(x.coords, back.coords)))
    rep.add("delaunay-roundtrip", "action-angle / Delaunay round trip is exact",
            x0, w_round, 0.0, w_round, 1e-14)

    fwd = energy_rescaled_map(rp)
    w_cande = 0.0
    for x in points[:10]:
        Jm = np.array(duals.jacobian(fwd, list(x.coords)))
        pull = Jm.T @ omega_w @ Jm
        w_cande = max(w_cande, float(np.max(np.abs(pull - omega_w))))
    rep.add("energy-rescaled-canonical",
            "the energy-rescaled third pair preserves the weighted form",
            x0, w_cande, 0.0, w_cande, 1e-11)

    el = OrbitalElements(a=1.3, e=0.4, inclination=0.6,
                         n=math.sqrt(rp.k / (rp.m * 1.3**3)), t0=0.0)
    cd = classical_delaunay(el, rp.m, rp.k)
    w_en = abs(-rp.m * rp.k**2 / (2.0 * cd.I3**2) - (-rp.k / (2.0 * el.a)))
    rep.add("classical-elements-energy",
            "classical element actions reproduce the orbit energy",
            x0, w_en, 0.0, w_en, cfg.tol_exact)

    # eigenvalue drift along an integrated bound orbit
    s0 = sample_spherical_bound(1, cfg.seed + 2, rp)[0]
    rhs = spherical_rhs(rp)
    traj = integrate_field(s0, rhs, 1e-3, 10_000, method="rk4",
                           observe=lambda c: (None, spherical_hamiltonian(c, rp), ()))
    eig0 = None
    w_drift = 0.0
    for st in traj.states[::50]:
        E = spherical_hamiltonian(st, rp)
        _, d, lt = first_integrals(st, rp)
        j1, j2, j3 = actions_from_integrals(E, lt, d, rp)
        I = (j3, rp.M * j2 + j3, j1 + rp.M * j2 + j3)
        eig = tuple(N[j] ** 1 * I[j] ** 1 for j in range(3))
        if eig0 is None:
            eig0 = eig
        w_drift = max(w_drift, max(abs((a - b) / b) for a, b in zip(eig, eig0)))
    rep.add("eigenvalue-flow-drift",
            "recursion eigenvalues drift below tolerance along an integrated orbit",
            x0, w_drift, 0.0, w_drift, cfg.tol_drift)
    return rep


# ---------------------------------------------------------------------------
# master suite
# ---------------------------------------------------------------------------


def suite_master(cfg: VerifyConfig) -> SuiteReport:
    rep = _new_report("master")
    rp = cfg.reduced
    points = sample_delaunay(max(50, cfg.samples // 2), cfg.seed)
    section = sample_delaunay(max(50, cfg.samples // 2), cfg.seed + 1, zero_angles=True)
    x0 = points[0].coords
    XH = dynamical_symmetry(0, rp)
    from .geometry import lie_bracket, lie_bracket_field

    # ladder and commutation
    w_ladder = w_comm = 0.0
    for i in range(0, 4):
        for mu in range(0, 4):
            Xi = dynamical_symmetry(i, rp)
            G = master_symmetry_field(i, mu, rp)
            Xt = dynamical_symmetry(i + mu, rp)
            for x in points[:25]:
                br = lie_bracket(Xi, G, x)
                tv = Xt(x)
                w_ladder = max(w_ladder, max(abs(duals.value(br[a]) - duals.value(tv[a]))
                                             for a in range(6)))
                w_comm = max(w_comm, max_abs(lie_bracket(Xi, Xt, x)))
    rep.add("symmetry-ladder", "bracket of X_i with Gamma_i,mu lands on X_{i+mu}",
            x0, w_ladder, 0.0, w_ladder, cfg.tol_bracket)
    rep.add("symmetry-commutation", "generated symmetries commute with their sources",
            x0, w_comm, 0.0, w_comm, cfg.tol_bracket)
    rep.note(
        "the ladder bracket produces the angle-direction field (d/dphi^3); the "
        "action-direction reading of the same display does not satisfy the "
        "bracket and is recorded as a typographical variant"
    )

    # degree-one property
    w_deg = 0.0
    nonzero = math.inf
    for i in range(0, cfg.i_max + 1):
        for mu in range(0, 3):
            G = master_symmetry_field(i, mu, rp)
            first = lie_bracket_field(XH, G)
            for x in points[:10]:
                nonzero = min(nonzero, max_abs(first(x)))
                w_deg = max(w_deg, max_abs(lie_bracket(XH, first, x)))
    rep.add("degree-one", "first bracket with the flow is nonzero, second vanishes",
            x0, w_deg, 0.0, w_deg, cfg.tol_bracket)
    rep.note(f"smallest first-bracket magnitude over the sample: {nonzero:.3e} (nonzero)")

    # master-integral pairing on the zero-angle section
    w_pair = 0.0
    off_section = 0.0
    for mu in range(0, 4):
        for x in section[:50]:
            w_pair = max(w_pair, pairing_residual(0, mu, rp, x))
        off = pairing_residual(0, mu, rp, points[0])
        if mu != 1:
            off_section = max(off_section, off)
    rep.add("master-integral-pairing",
            "master fields pair with their integrals where the angles vanish",
            section[0].coords, w_pair, 0.0, w_pair, 1e-10)
    rep.note(
        f"off the zero-angle section the pairing one-form is not closed for "
        f"mu != 1 (residual up to {off_section:.3e} at the first sample point); "
        f"its differential carries (mu - 1) phi^j / I_j^mu components, so no "
        f"exact integral exists there"
    )

    # conformal coefficients
    w_conf = 0.0
    for i in range(0, cfg.i_max + 1):
        for x in points[:10]:
            cc = conformal_coefficients(i, rp, x)
            w_conf = max(w_conf, cc.residual_P, cc.residual_P1, cc.residual_H)
    rep.add("conformal-coefficients",
            "scaling fields act conformally with coefficients (-1/(3+i), 0, -2/(3+i))",
            x0, w_conf, 0.0, w_conf, 1e-10)

    # recursion families against repeated operator application
    w_fam = 0.0
    for h in range(0, cfg.h_max + 1):
        Xcf = family_flow_field(h, rp)
        Xap = apply_recursion_to_vector(dynamical_symmetry(0, rp), h, rp)
        Gcf = family_gamma_field(0, h, rp)
        Gap = apply_recursion_to_vector(master_symmetry_field(0, 0, rp), h, rp)
        Hh = family_energy_field(h, rp)
        for x in points[:10]:
            w_fam = max(w_fam, max(abs(duals.value(a) - duals.value(b))
                                   for a, b in zip(Xcf(x), Xap(x))))
            w_fam = max(w_fam, max(abs(duals.value(a) - duals.value(b))
                                   for a, b in zip(Gcf(x), Gap(x))))
            g = gradient(Hh, x)
            expect = rp.m * rp.k**2 * x.coords[2] ** (h - 3)
            w_fam = max(w_fam, abs(duals.value(g[2]) - expect),
                        max(abs(duals.value(g[a])) for a in (0, 1, 3, 4, 5)))
    rep.add("recursion-families",
            "closed-form families equal repeated recursion application, and the "
            "family energies differentiate to the family differentials",
            x0, w_fam, 0.0, w_fam, 1e-10)

    # the full scaling ledger
    w_ledger = 0.0
    ledger_points = points[: min(len(points), 50)]
    for i in range(0, cfg.i_max + 1):
        for h in range(0, cfg.h_max + 1 if cfg.h_max <= 2 else 3):
            for l in range(0, cfg.l_max + 1):
                for x in ledger_points:
                    for e in scaling_ledger(i, h, l, rp, x):
                        w_ledger = max(w_ledger, e.residual)
    rep.add("scaling-ledger",
            "every scaling relation holds with its displayed rational coefficient",
            x0, w_ledger, 0.0, w_ledger, cfg.tol_bracket)

    # coefficient pattern consistency (exact rational comparison)
    inconsistent = []
    w_pat = 0.0
    for i in range(0, cfg.i_max + 1):
        for h in range(0, 3):
            for l in range(0, 3):
                for row in coefficient_pattern_table(i, h, l):
                    if row.identity == "flow family":
                        if not row.consistent:
                            inconsistent.append((i, h, l))
                    else:
                        w_pat = max(w_pat, abs(float(row.explicit - row.pattern)))
    rep.add("coefficient-patterns",
            "general coefficient patterns reproduce the explicit fractions "
            "(flow family handled separately)",
            x0, w_pat, 0.0, w_pat, 0.0)
    rep.note(
        f"the displayed general pattern for the flow family gives -(l+1)/(3+i) "
        f"while the bracket yields -(3-l)/(3+i); they coincide only at l = 1 "
        f"({len(inconsistent)} of the tested index triples differ); the numeric "
        f"ledger follows the bracket"
    )
    return rep


SUITES = {
    "brackets": suite_brackets,
    "algebra": suite_algebra,
    "action-angle": suite_action_angle,
    "hierarchy": suite_hierarchy,
    "master": suite_master,
}
