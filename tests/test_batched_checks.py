"""The batched checks of the brackets, algebra, action-angle, hierarchy
and master suites against their per-point forms, and the work they take.

Each reference below is the check as it was written before it was batched:
a Python loop that evaluates one point (or one random draw) at a time on
floats.  The batched check must yield the same report, every entry's
residual, lhs and rhs by ``float.hex``, its point and every note, at several
sample counts and seeds, the acceptance configuration among them.
"""

import builtins
import functools
import math

import numpy as np
import pytest

from nckepler import duals, suites
from nckepler.deformation import (
    DeformationParams,
    beta_bracket_table,
    coordinate_function,
    nc_bracket,
    nc_bracket_field,
    nc_symplectic_structures,
    transform_coordinates,
    weighted_bracket,
)
from nckepler.errors import ChartDomainError, SingularConfigurationError, TurningPointError
from nckepler.geometry import (
    ScalarField,
    batch,
    bivector_bracket,
    coords_of,
    flow_pairing_residual,
    gradient,
    max_abs,
    nijenhuis_torsion,
    schouten_bracket,
)
from nckepler.hierarchy import (
    displayed_bivector_table,
    hierarchy_in_action_angle,
    ladder_energy_field,
    recursion_operator,
    transported,
)
from nckepler.kepler import (
    deformed_radius,
    hamilton_rhs_closed_form,
    hamilton_rhs_primed_form,
    hamiltonian,
    hamiltonian_field,
    hamiltonian_vector_field_nc,
    integrate_field,
)
from nckepler.master import (
    apply_recursion_to_vector,
    conformal_coefficients,
    dynamical_symmetry,
    family_energy_field,
    family_flow_field,
    family_gamma_field,
    master_symmetry_field,
    pairing_residual,
)
from nckepler.reduced import (
    TWO_PI,
    ReducedParams,
    actions_from_integrals,
    azimuthal_phase,
    continuous_angles,
    first_integrals,
    frequencies,
    reduced_structures,
    spherical_hamiltonian,
    spherical_rhs,
)
from nckepler.report import SuiteReport
from nckepler.sampling import (
    polynomial_field,
    random_polynomial_coefficients,
    sample_cartesian,
    sample_deformations,
    sample_delaunay,
    sample_spherical_bound,
)
from nckepler.suites import Entry, VerifyConfig, run_checks
from nckepler.symmetry import (
    BracketEntry,
    ClosureFit,
    EnergySign,
    angular_momentum_field,
    bracket_H_closed_forms,
    lrl_field,
    observables_jacobian,
    pairwise_bracket_table,
    scaled_basis,
    structure_matrices,
)

from test_compensated_sum import neumaier_sum

CONFIGS = [(24, 0), (24, 7), (24, 42), (137, 3), (100, 42)]


# -- per-point references -------------------------------------------------------


def _ref_table_gaps(bracket, blocks, points) -> list:
    return [[bracket(f[i], g[j], x) - table[i][j] for x in points for i in range(3) for j in range(3)]
            for f, g, table in blocks]


def _ref_cyclic_sum(f, g, h, x, params):
    return (
        nc_bracket(f, nc_bracket_field(g, h, params), x, params)
        + nc_bracket(g, nc_bracket_field(h, f, params), x, params)
        + nc_bracket(h, nc_bracket_field(f, g, params), x, params)
    )


def _ref_bracket_patterns(ctx):
    params, tol = ctx.params, ctx.cfg.tol_exact
    coord = [coordinate_function(i) for i in range(6)]
    q, p, zero = coord[:3], coord[3:], [[0.0] * 3] * 3
    inverse = [[1.0 / params.theta[j] if i == j else 0.0 for j in range(3)] for i in range(3)]
    pq, qq, pp = _ref_table_gaps(lambda f, g, x: nc_bracket(f, g, x, params),
                                 ((p, q, inverse), (q, q, zero), (p, p, zero)), ctx.points)
    yield Entry("bracket-pattern-pq", "{p_i, q^j} = theta_j^{-1} delta_ij", pq, tol)
    yield Entry("bracket-pattern-qq", "{q^i, q^j} = 0", qq, tol)
    yield Entry("bracket-pattern-pp", "{p_i, p_j} = 0", pp, tol)


def _ref_primed(params):
    return [ScalarField(lambda c, i=i: transform_coordinates(c, params)[i]) for i in range(6)]


def _fold(terms):
    """``terms`` added left to right from 0.0, as CPython's ``sum()`` added
    floats before 3.12 compensated them."""
    total = 0.0
    for t in terms:
        total = total + t
    return total


def _ref_canonical_bracket(f, g, x):
    coords = coords_of(x)
    df = duals.grad(f.func, coords)
    dg = duals.grad(g.func, coords)
    return _fold(df[i] * dg[3 + i] - df[3 + i] * dg[i] for i in range(3))


def _ref_structure_brackets(ctx):
    params, tol = ctx.params, ctx.cfg.tol_exact
    primed = _ref_primed(params)
    q, p = primed[:3], primed[3:]
    sm = structure_matrices(params)
    F, D, E = _ref_table_gaps(lambda f, g, x: nc_bracket(f, g, x, params),
                              ((p, q, sm.F), (p, p, sm.D), (q, q, sm.E)),
                              ctx.points[: max(10, ctx.cfg.samples // 10)])
    yield Entry("structure-F", "weighted bracket {p'_i, q'^j} equals F_ij", F, tol)
    yield Entry("structure-D", "weighted bracket {p'_i, p'_j} equals D_ij", D, tol)
    yield Entry("structure-E", "weighted bracket {q'^i, q'^j} equals E_ij", E, tol)


def _ref_beta_table(ctx):
    tol = ctx.cfg.tol_exact
    primed = _ref_primed(ctx.params)
    q, p = primed[:3], primed[3:]
    table = beta_bracket_table(ctx.params)
    qq, qp, pp = _ref_table_gaps(_ref_canonical_bracket, ((q, q, table.qq), (q, p, table.qp), (p, p, table.pp)),
                                 ctx.points[:10])
    yield Entry("beta-table-qq", "canonical {q'_i, q'_j} reproduces the declared qq block", qq, tol)
    yield Entry("beta-table-qp", "canonical {q'_i, p'_j} reproduces identity + gamma", qp, tol)
    yield Entry("beta-table-pp", "canonical {p'_i, p'_j} reproduces the declared pp block", pp, tol)


def _ref_draw(rng, n, points):
    fields = [polynomial_field(*random_polynomial_coefficients(rng)) for _ in range(n)]
    return fields, points[int(rng.integers(0, len(points)))]


def _ref_random_brackets(ctx):
    params = ctx.params
    rng = np.random.default_rng(ctx.cfg.seed + 1)
    gaps = []
    for _ in range(50):
        (f, g), x = _ref_draw(rng, 2, ctx.points)
        gaps.append(nc_bracket(f, g, x, params) - duals.value(bivector_bracket(ctx.bivector, f, g)(x)))
    yield Entry("bivector-bracket", "bivector-induced bracket equals the weighted bracket",
                gaps, ctx.cfg.tol_exact)
    sums = []
    for _ in range(12):
        (f, g, h), x = _ref_draw(rng, 3, ctx.points)
        sums.append(_ref_cyclic_sum(f, g, h, x, params))
    yield Entry("jacobi", "cyclic bracket sum vanishes for smooth observables", sums, 1e-10)


def _ref_gaps(lhs, rhs):
    return [duals.value(a) - duals.value(b) for a, b in zip(lhs, rhs)]


def _ref_equations_of_motion(ctx):
    cfg = ctx.cfg
    defs = sample_deformations(cfg.deformation_sets, cfg.seed + 2)
    closed, primed, iota = [], [], []
    for pset in defs:
        pts = sample_cartesian(max(10, cfg.samples // len(defs)), cfg.seed + 3, pset)
        X = hamiltonian_vector_field_nc(pset)
        omega_p, _ = nc_symplectic_structures(pset)
        Hf = hamiltonian_field(pset)
        for x in pts:
            cf = hamilton_rhs_closed_form(x, pset)
            closed.append(_ref_gaps(cf, X(x)))
            primed.append(_ref_gaps(cf, hamilton_rhs_primed_form(x, pset)))
            iota.append(flow_pairing_residual(X, omega_p, Hf, x))
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


def _ref_bracket_closed_forms(ctx):
    params, th = ctx.params, ctx.params.theta
    wL, wA = [], []
    for x in ctx.points:
        frame, J = observables_jacobian(x, params)
        cL, cA = bracket_H_closed_forms(frame, params)
        for i in range(3):
            wL.append(weighted_bracket(J[0], J[1 + i], th) - cL[i])
            wA.append(weighted_bracket(J[0], J[4 + i], th) - cA[i])
    yield Entry("bracket-H-L", "closed form of {H, L_i} matches autodiff at generic deformation",
                wL, ctx.cfg.tol_bracket)
    yield Entry("bracket-H-A", "closed form of {H, A_i} matches autodiff at generic deformation",
                wA, ctx.cfg.tol_bracket)
    yield ("the middle group of the {H, A_i} closed form pairs its coefficient row "
           "with the Levi-Civita index of the momentum factor; pairing it with the "
           "angular-momentum index instead fails the autodiff cross-check")


def _ref_pairwise_tables(ctx):
    tables = [pairwise_bracket_table(x, ctx.params)
              for x in ctx.points[: max(10, ctx.cfg.samples // 10)]]
    yield Entry("pairwise-chain", "structure-matrix route equals autodiff for every pairwise bracket",
                [e.ad_vs_chain for t in tables for block in t.values() for e in block.values()],
                ctx.cfg.tol_bracket)
    closed = [e.ad_vs_closed for x in ctx.comm_points
              for block in pairwise_bracket_table(x, ctx.comm).values() for e in block.values()]
    generic = max_abs(e.ad_vs_closed for t in tables[:10] for e in t["LA"].values())
    yield Entry("pairwise-closed-commutative",
                "structure-constant bracket table matches autodiff in the commutative limit",
                closed, ctx.cfg.tol_bracket, point=ctx.comm_points[0].coords)
    yield (f"at generic deformations the structure-constant pairwise forms deviate "
           f"from autodiff (max residual {generic:.3e} over sampled points); they "
           f"presuppose the involution conditions and are asserted only where those "
           f"hold (the commutative limit)")


def _ref_closure_fit(points, params, tau):
    values, grads = [], []
    for x in points:
        c = coords_of(x)
        values.append([duals.value(v) for v in scaled_basis(c, params, tau)])
        grads.append(duals.jacobian(lambda z: scaled_basis(z, params, tau), c))

    def single_coeff(pairs, targets):
        rows, rhs = [], []
        for bevals, J in zip(values, grads):
            for (f, g), tgt in zip(pairs, targets):
                rows.append([bevals[tgt]])
                rhs.append(weighted_bracket(J[f], J[g], params.theta))
        A = np.array(rows)
        b = np.array(rhs)
        coef, *_ = np.linalg.lstsq(A, b, rcond=None)
        return float(coef[0]), float(np.max(np.abs(A @ coef - b)))

    c_ll, r1 = single_coeff([(0, 1), (1, 2), (2, 0)], [2, 0, 1])
    c_gg, r2 = single_coeff([(3, 4), (4, 5), (5, 3)], [2, 0, 1])
    c_lg, r3 = single_coeff([(0, 4), (1, 5), (2, 3)], [5, 3, 4])
    return ClosureFit(coefficient_LL=c_ll, coefficient_GG=c_gg, coefficient_LG=c_lg,
                      residual=max(r1, r2, r3))


def _ref_closure_fits(ctx):
    fit = _ref_closure_fit(ctx.comm_points[:30], ctx.comm, EnergySign.MINUS)
    yield Entry("so4-closure", "bound-region closure fit follows the so(4) pattern",
                (fit.residual, fit.coefficient_GG - fit.coefficient_LL,
                 fit.coefficient_LG - fit.coefficient_LL), 1e-8,
                point=ctx.comm_points[0].coords, lhs=fit.coefficient_GG, rhs=fit.coefficient_LL)
    fit = _ref_closure_fit(ctx.plus_points, ctx.comm, EnergySign.PLUS)
    yield Entry("so13-closure", "positive-energy closure fit flips the scaled-vector sign",
                (fit.residual, fit.coefficient_GG + fit.coefficient_LL,
                 fit.coefficient_LG - fit.coefficient_LL), 1e-8,
                point=ctx.plus_points[0].coords, lhs=fit.coefficient_GG, rhs=-fit.coefficient_LL)


def _ref_algebra_jacobi(ctx):
    comm, pts = ctx.comm, ctx.comm_points
    rng = np.random.default_rng(ctx.cfg.seed + 6)
    basis = [angular_momentum_field(comm, i) for i in range(3)] + [lrl_field(comm, i) for i in range(3)]
    sums = []
    for _ in range(10):
        i, j, k = rng.integers(0, 6, size=3)
        x = pts[int(rng.integers(0, len(pts)))]
        sums.append(_ref_cyclic_sum(basis[i], basis[j], basis[k], x, comm))
    yield Entry("algebra-jacobi", "cyclic bracket sum over the conserved basis vanishes",
                sums, ctx.cfg.tol_bracket, point=pts[0].coords)


def _ref_transport(ctx):
    cfg, aa = ctx.cfg, ctx.aa_points
    rp, tol = cfg.reduced, cfg.tol_transport
    Xaa = reduced_structures(rp)[2]
    P0aa = hierarchy_in_action_angle(0, rp)[0]
    for h in range(1, cfg.h_max + 1):
        Paa, Waa, Taa = hierarchy_in_action_angle(h, rp)
        Fh_aa = transported(ladder_energy_field(h, rp), rp)
        pairing = [flow_pairing_residual(Xaa, Waa, Fh_aa, x) for x in aa]
        compat, tors = zip(*[(schouten_bracket(Paa, P0aa, x), nijenhuis_torsion(Taa, x))
                             for x in aa[:6]])
        yield Entry(f"transport-pairing-h{h}",
                    "transported level form pairs with the in-chart flow and energy",
                    pairing, tol, point=aa[0].coords)
        yield Entry(f"transport-compatibility-h{h}", "transported bivectors stay Schouten-compatible",
                    compat, tol, point=aa[0].coords)
        yield Entry(f"transport-torsion-h{h}", "transported recursion operator keeps vanishing torsion",
                    tors, tol, point=aa[0].coords)
        diag, off = [], []
        for x in aa[:10]:
            tab = displayed_bivector_table(h, rp, list(x.coords))
            true = Paa(x)
            diag.append([tab[i][3 + i] - duals.value(true[i][3 + i]) for i in range(3)])
            off.append([tab[i][j] - duals.value(true[i][j]) for i in range(6) for j in range(6)])
        yield Entry(f"table-diagonal-h{h}",
                    "displayed action-angle table agrees with the transport on the diagonal pairs",
                    diag, tol, point=aa[0].coords)
        yield (f"level {h}: the displayed off-diagonal action-angle components "
               f"deviate from the exact transport by up to {max_abs(off):.3e}; the "
               f"transported tensors are used for every downstream check")
        tab = displayed_bivector_table(h, rp, list(aa[0].coords))
        yield Entry(f"table-internal-relation-h{h}", "displayed table satisfies its internal entry relation",
                    tab[1][3] - (tab[0][3] - tab[1][4]) / rp.M, cfg.tol_exact, point=aa[0].coords)


def _ref_master_pairing(ctx):
    rp = ctx.cfg.reduced
    section = sample_delaunay(max(50, ctx.cfg.samples // 2), ctx.cfg.seed + 1, zero_angles=True)
    on, off = [], []
    for mu in range(0, 4):
        on += [pairing_residual(0, mu, rp, x) for x in section[:50]]
        off.append(pairing_residual(0, mu, rp, ctx.points[0]))
    yield Entry("master-integral-pairing", "master fields pair with their integrals where the angles vanish",
                on, 1e-10, point=section[0].coords)
    yield (f"off the zero-angle section the pairing one-form is not closed for "
           f"mu != 1 (residual up to {max_abs(r for mu, r in enumerate(off) if mu != 1):.3e} "
           f"at the first sample point); its differential carries (mu - 1) phi^j / I_j^mu "
           f"components, so no exact integral exists there")


def _ref_conformal(ctx):
    coefficients = [conformal_coefficients(i, ctx.cfg.reduced, x)
                    for i in range(0, ctx.cfg.i_max + 1) for x in ctx.points[:10]]
    yield Entry("conformal-coefficients",
                "scaling fields act conformally with coefficients (-1/(3+i), 0, -2/(3+i))",
                [(cc.residual_P, cc.residual_P1, cc.residual_H) for cc in coefficients], 1e-10)


def _ref_recursion_families(ctx):
    rp = ctx.cfg.reduced
    gaps = []
    for h in range(0, ctx.cfg.h_max + 1):
        Xcf = family_flow_field(h, rp)
        Xap = apply_recursion_to_vector(dynamical_symmetry(0, rp), h, rp)
        Gcf = family_gamma_field(0, h, rp)
        Gap = apply_recursion_to_vector(master_symmetry_field(0, 0, rp), h, rp)
        Hh = family_energy_field(h, rp)
        for x in ctx.points[:10]:
            gaps += [_ref_gaps(Xcf(x), Xap(x)), _ref_gaps(Gcf(x), Gap(x))]
            g = gradient(Hh, x)
            gaps.append(duals.value(g[2]) - rp.m * rp.k**2 * x.coords[2] ** (h - 3))
            gaps.append([duals.value(g[a]) for a in (0, 1, 3, 4, 5)])
    yield Entry("recursion-families",
                "closed-form families equal repeated recursion application, and the "
                "family energies differentiate to the family differentials", gaps, 1e-10)


def _ref_reduced_flow(ctx):
    rp, s0 = ctx.cfg.reduced, ctx.points[0]
    traj = integrate_field(s0, spherical_rhs(rp), 2e-4, 4000, method="rk4",
                           observe=suites._energy_monitor(rp), monitor_names=("H",))
    E0 = traj.monitor_series("H")[0]
    _, d0, lt0 = first_integrals(s0, rp)
    J0 = actions_from_integrals(E0, lt0, d0, rp)
    drift = [(d - d0, lt - lt0) for _, d, lt in (first_integrals(st, rp) for st in traj.states[::100])]
    yield Entry("integral-drift", "azimuthal and total angular-momentum integrals hold along the flow",
                drift, 1e-6)
    phi_series = np.unwrap([st[2] for st in traj.states])
    angles = np.array([
        continuous_angles((st[0], st[1], float(pu), *st[3:]), J0, rp)
        for st, pu in zip(traj.states, phi_series)
    ])
    t = np.array(traj.times)
    A = np.vstack([t, np.ones_like(t)]).T
    fr = frequencies(J0, rp)
    rates = []
    for kk in range(3):
        coef, *_ = np.linalg.lstsq(A, np.unwrap(angles[:, kk]), rcond=None)
        rates.append(abs(coef[0] - fr[kk]) / abs(fr[kk]))
    yield Entry("angle-rates", "each angle advances linearly at its action frequency", rates, 1e-5)
    yield ("two displayed angle arguments were re-derived before use: the apsidal "
           "arcsin takes (1 - L~^2/(m k r)) S^2 over the turning factor (the "
           "displayed variant is not dimensionless), the latitude term carries no "
           "extra M factor and enters with a minus sign, and the node term carries "
           "1/M; the linear-rate test pins all three")


def _ref_recursion_semigroup(ctx):
    rp = ctx.cfg.reduced
    gaps = []
    for x in ctx.points[:10]:
        for h1 in range(0, 3):
            for h2 in range(0, 3):
                T1 = recursion_operator(h1, rp).func(list(x.coords))
                T2 = recursion_operator(h2, rp).func(list(x.coords))
                T12 = recursion_operator(h1 + h2, rp).func(list(x.coords))
                gaps.append([[_fold(T1[i][kk] * T2[kk][j] for kk in range(6)) - T12[i][j]
                              for j in range(6)] for i in range(6)])
    yield Entry("recursion-semigroup", "recursion operators compose by adding their levels",
                gaps, ctx.cfg.tol_exact)


# (suite, batched check, its per-point reference)
PAIRS = [
    ("brackets", suites._bracket_patterns, _ref_bracket_patterns),
    ("brackets", suites._structure_brackets, _ref_structure_brackets),
    ("brackets", suites._beta_table, _ref_beta_table),
    ("brackets", suites._random_brackets, _ref_random_brackets),
    ("brackets", suites._equations_of_motion, _ref_equations_of_motion),
    ("algebra", suites._bracket_closed_forms, _ref_bracket_closed_forms),
    ("algebra", suites._pairwise_tables, _ref_pairwise_tables),
    ("algebra", suites._closure_fits, _ref_closure_fits),
    ("algebra", suites._algebra_jacobi, _ref_algebra_jacobi),
    ("action-angle", suites._reduced_flow, _ref_reduced_flow),
    ("hierarchy", suites._recursion_semigroup, _ref_recursion_semigroup),
    ("hierarchy", suites._transport, _ref_transport),
    ("master", suites._master_pairing, _ref_master_pairing),
    ("master", suites._conformal, _ref_conformal),
    ("master", suites._recursion_families, _ref_recursion_families),
]


@functools.lru_cache(maxsize=None)
def _context(suite: str, samples: int, seed: int):
    return suites.SUITES[suite].context(VerifyConfig(samples=samples, seed=seed))


def _report(suite, check, ctx) -> tuple:
    """Every entry with its floats by ``float.hex``, and every note."""
    rep = run_checks(SuiteReport(suite), ctx, (check,))
    entries = [(e.identity, e.statement, [v.hex() for v in e.point], e.lhs.hex(), e.rhs.hex(),
                e.residual.hex(), e.tolerance.hex()) for e in rep.entries]
    return entries, rep.notes


@pytest.mark.parametrize("samples, seed", CONFIGS)
@pytest.mark.parametrize("suite, check, reference", PAIRS, ids=[c.__name__ for _, c, _ in PAIRS])
def test_batched_check_equals_its_per_point_form_bitwise(suite, check, reference, samples, seed):
    ctx = _context(suite, samples, seed)
    got, want = _report(suite, check, ctx), _report(suite, reference, ctx)
    assert got[0] and got == want


@pytest.mark.parametrize("samples, seed", CONFIGS)
@pytest.mark.parametrize("check, reference", [(suites._bracket_closed_forms, _ref_bracket_closed_forms),
                                              (suites._pairwise_tables, _ref_pairwise_tables)],
                         ids=["_bracket_closed_forms", "_pairwise_tables"])
def test_symmetry_checks_equal_their_per_point_form_under_a_compensated_sum(check, reference, samples,
                                                                            seed, monkeypatch):
    # ``symmetry`` folds its sums left, so the per-point references, on
    # floats, add as the batched checks do under CPython 3.12's sum() too
    ctx = _context("algebra", samples, seed)
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    got, want = _report("algebra", check, ctx), _report("algebra", reference, ctx)
    assert got[0] and got == want


# -- the evaluators the batched checks call, point by point --------------------


def _leaves(v) -> list:
    """The numbers of a nested result: a dual's value and then its
    tangents, a bracket entry's three routes, a sequence's items in order."""
    if isinstance(v, duals.Dual):
        return _leaves(v.a) + [leaf for t in v.b for leaf in _leaves(t)]
    if isinstance(v, BracketEntry):
        return _leaves([v.ad, v.chain, v.closed])
    if isinstance(v, dict):
        return [leaf for key in sorted(v) for leaf in _leaves(v[key])]
    if isinstance(v, (list, tuple)):
        return [leaf for item in v for leaf in _leaves(item)]
    return [v]


def _assert_pointwise(evaluate, points):
    """Each point's slice of ``evaluate`` on the batch of ``points`` is, leaf
    by leaf, the bits of ``evaluate`` at that point alone."""
    columns = [np.broadcast_to(g, len(points)).tolist() for g in _leaves(evaluate(batch(points)))]
    for p, x in enumerate(points):
        want = _leaves(evaluate(x))
        assert [c[p].hex() for c in columns] == [float(w).hex() for w in want], p


@pytest.mark.parametrize("samples, seed", CONFIGS)
def test_batched_evaluators_equal_each_points_float_route_bitwise(samples, seed):
    br, al, hi = (_context(name, samples, seed) for name in ("brackets", "algebra", "hierarchy"))
    rng = np.random.default_rng(seed)
    f, g = (polynomial_field(*random_polynomial_coefficients(rng)) for _ in range(2))
    for params, pts in [(br.params, br.points[:40]), (al.comm, al.comm_points[:40])] + [
            (pset, sample_cartesian(10, seed + 3, pset)) for pset in sample_deformations(3, seed + 2)]:
        X = hamiltonian_vector_field_nc(params)
        for evaluate in (
            lambda x: hamilton_rhs_primed_form(x, params),
            lambda x: X(x),
            lambda x: duals.grad(hamiltonian_field(params).func, coords_of(x)),
            lambda x: observables_jacobian(x, params),
            lambda x: bracket_H_closed_forms(observables_jacobian(x, params)[0], params),
            lambda x: pairwise_bracket_table(x, params),
            lambda x: nc_bracket(f, nc_bracket_field(g, f, params), x, params),
            lambda x: bivector_bracket(br.bivector, f, g)(x),
        ):
            _assert_pointwise(evaluate, pts)
    for tau, pts in ((EnergySign.MINUS, al.comm_points[:30]), (EnergySign.PLUS, al.plus_points)):
        _assert_pointwise(lambda x: duals.jacobian(lambda z: scaled_basis(z, al.comm, tau), coords_of(x)), pts)
    rp = hi.cfg.reduced
    flow = reduced_structures(rp)[2]
    for h in range(4):
        _assert_pointwise(lambda x: displayed_bivector_table(h, rp, coords_of(x)), hi.aa_points)
        _assert_pointwise(lambda x: duals.jacobian(flow.func, coords_of(x)), hi.aa_points)
        _assert_pointwise(lambda x: duals.grad(transported(ladder_energy_field(h, rp), rp).func, coords_of(x)),
                          hi.aa_points)
        _assert_pointwise(lambda x: duals.grad(family_energy_field(h, rp).func, coords_of(x)), hi.points[:20])


def test_float_evaluators_of_a_large_batch_equal_the_float_route_bitwise():
    # Python's float ** and numpy's ** differ in the last bit at about 1 in
    # 1 000 squares and 1 in 40 cubes: the points are random ones, and ones
    # whose coordinates square differently, which the commutative limit
    # passes on to the primed coordinates unchanged
    rng = np.random.default_rng(5)
    awkward = [v for v in rng.uniform(0.2, 1.5, 400_000).tolist() if v**2 != v * v][:300]
    signs = rng.choice([-1.0, 1.0], size=(50, 6))
    cart = rng.uniform([-1.6] * 3 + [-1.1] * 3, [1.6] * 3 + [1.1] * 3, size=(1_000, 6)).tolist() + \
        (signs * rng.choice(awkward, size=(50, 6))).tolist()
    for params in (DeformationParams(), sample_deformations(1, 5)[0]):
        for evaluate in (
            lambda x: deformed_radius(x, params),
            lambda x: hamiltonian(x, params),
            lambda x: hamilton_rhs_primed_form(x, params),
            lambda x: bracket_H_closed_forms(observables_jacobian(x, params)[0], params),
        ):
            _assert_pointwise(evaluate, cart)
    # the action sum S = J1 + M J2 + J3 is J1 where J2 = J3 = 0
    rp = VerifyConfig().reduced
    aa = rng.uniform([0.15, 0.15, 0.25, 0.0, 0.0, 0.0], [1.1, 1.1, 1.4, 6.3, 6.3, 6.3], size=(1_000, 6)).tolist()
    at_s = aa + [[v, 0.0, 0.0, 1.0, 2.0, 3.0] for v in awkward]
    at_i3 = aa + [[0.5, 0.5, v, 1.0, 2.0, 3.0] for v in awkward]
    flow = reduced_structures(rp)[2]
    _assert_pointwise(flow.func, at_s)
    for h in range(4):
        _assert_pointwise(lambda x: displayed_bivector_table(h, rp, x), at_s)
        _assert_pointwise(family_flow_field(h, rp).func, at_i3)


def _torus(s, rp: ReducedParams):
    """The actions of the bound state ``s``, and ``s`` under every sign of
    p_r and p_theta with its azimuth moved by whole turns, past -2 pi and
    2 pi: every state lies on the torus of those actions."""
    E = spherical_hamiltonian(s, rp)
    _, d, lt = first_integrals(s, rp)
    J = actions_from_integrals(E, lt, d, rp)
    r, theta, phi, p_r, p_t, p_p = s.coords
    return J, [(r, theta, phi + turns * TWO_PI, sr * p_r, st * p_t, p_p)
               for turns in (-3, -1, 0, 1, 5) for sr in (1.0, -1.0) for st in (1.0, -1.0)]


ANGLE_PARAMS = [VerifyConfig().reduced, ReducedParams(),
                ReducedParams(thetadot=-0.009, phidot=-0.2, m=1.3, k=0.7)]


@pytest.mark.parametrize("rp", ANGLE_PARAMS, ids=["acceptance", "classical", "negative-rates"])
def test_angle_map_of_a_batch_equals_each_states_float_call_bitwise(rp):
    # with J1 = 0 the orbit is circular and has no radial terms; with J2 = 0
    # (and the same S and L~) it is planar and has no latitude or node terms
    for s in sample_spherical_bound(12, 3, rp):
        J, states = _torus(s, rp)
        for actions in (J, (0.0, J[1], J[2]), (J[0], 0.0, rp.M * J[1] + J[2])):
            _assert_pointwise(lambda x: continuous_angles(x, actions, rp), states)
            assert all(type(v) is float for v in continuous_angles(states[0], actions, rp))
        _assert_pointwise(lambda x: azimuthal_phase(coords_of(x)[2], rp), states)
    phis = np.linspace(-15.0, 40.0, 241).tolist() + [
        0.0, -0.0, 1e-300, -1e-9, math.pi, TWO_PI, -TWO_PI, 3 * TWO_PI + 0.25]
    _assert_pointwise(lambda x: azimuthal_phase(coords_of(x)[2], rp),
                      [(1.0, 1.0, phi, 0.0, 0.0, 0.0) for phi in phis])
    assert type(azimuthal_phase(0.5, rp)) is float


def test_guards_test_every_point_of_a_batch():
    # one failing point fails the batch, with the message that point gives
    comm = DeformationParams()
    good = sample_cartesian(6, 8, comm, energy_sign="minus")
    bad = sample_cartesian(1, 9, comm, energy_sign="plus")[0]
    for tau, pts in ((EnergySign.MINUS, good[:3] + [bad] + good[3:]),
                     (EnergySign.PLUS, [bad, good[0], bad])):
        culprit = next(x for x in pts if (hamiltonian(x, comm) < 0.0) == (tau is EnergySign.PLUS))
        with pytest.raises(ChartDomainError) as want:
            scaled_basis(coords_of(culprit), comm, tau)
        with pytest.raises(ChartDomainError) as got:
            scaled_basis(batch(pts), comm, tau)
        assert str(got.value) == str(want.value)
    singular = [x.coords for x in good] + [(0.0, 0.0, 0.0, 0.3, 0.2, 0.1)]
    with pytest.raises(SingularConfigurationError, match="deformed radius Y vanished"):
        deformed_radius(batch(singular), comm)
    flow = reduced_structures(VerifyConfig().reduced)[2]
    with pytest.raises(ChartDomainError, match="action sum S must be positive"):
        flow.func(batch([[0.5, 0.5, 0.5, 0.0, 0.0, 0.0], [-2.0, 0.5, 0.5, 0.0, 0.0, 0.0]]))
    rp = VerifyConfig().reduced
    J, states = _torus(sample_spherical_bound(1, 4, rp)[0], rp)
    far = (50.0, 1.1, 0.4, 0.0, 0.1, 0.5)
    with pytest.raises(TurningPointError) as want:
        continuous_angles(far, J, rp)
    with pytest.raises(TurningPointError) as got:
        continuous_angles(batch(states[:7] + [far] + states[7:]), J, rp)
    assert str(got.value) == str(want.value)


# -- work counts ---------------------------------------------------------------


def _count_passes(monkeypatch, samples: int) -> dict:
    """``duals.grad`` and ``duals.jacobian`` calls, and all seeded passes
    (theirs included), of the brackets suite, and of it and the other
    batched checks, at ``samples`` points."""
    counts = {"grad": 0, "jacobian": 0, "seeded_pass": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    with monkeypatch.context() as patch:
        for name in counts:
            patch.setattr(duals, name, counted(name, getattr(duals, name)))
        cfg = VerifyConfig(samples=samples)
        suites.SUITES["brackets"](cfg)
        brackets = dict(counts)
        for suite, check, _ in PAIRS:
            if suite != "brackets":
                run_checks(SuiteReport(suite), _context(suite, samples, cfg.seed), (check,))
    return {"brackets": brackets, "batched checks": counts}


def test_batched_checks_take_as_many_passes_at_any_sample_count(monkeypatch):
    # one pass per field over all of a check's points: the count does not
    # grow with the points (per point, the brackets suite took 7 124 grad
    # calls at 100 samples); the primed-coordinate brackets read one
    # Jacobian per check where they took 54 gradients.  The vector jets, the
    # closure fits, the pairwise bracket tables and the observables pass
    # (``observables_jacobian``, which returns the frame with the rows) take
    # their one seeded pass directly, not through ``jacobian``
    small, full = _count_passes(monkeypatch, 24), _count_passes(monkeypatch, 100)
    assert small == full
    assert full["brackets"] == {"grad": 100, "jacobian": 2, "seeded_pass": 102}
    assert full["batched checks"] == {"grad": 118, "jacobian": 5, "seeded_pass": 151}


def test_the_flow_bracket_check_builds_no_dual(monkeypatch):
    """``flow-bracket-consistency`` reads only the frame of its sampled
    states, so it evaluates them on floats.  The seeded pass it took for
    that frame built 110 duals at the acceptance configuration."""
    made = []
    init = duals.Dual.__init__

    def counted(self, a, b):
        made.append(None)
        init(self, a, b)

    ctx = suites._algebra_context(VerifyConfig())
    monkeypatch.setattr(duals.Dual, "__init__", counted)
    entry = next(suites._flow_bracket_consistency(ctx))
    assert entry.identity == "flow-bracket-consistency" and len(made) == 0

    observables_jacobian(batch(ctx.points[:16]), ctx.params)
    assert len(made) == 110
