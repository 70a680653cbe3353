"""End-to-end checks of the energy identities, the dual potential, the limit
energy, and the regularity/convergence diagnostics at desk scale.

The long sweeps (common-grid minimisers at several interaction ranges) are
shared between tests through module-scoped fixtures, so the whole file runs
in well under half an hour.
"""

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from nllc import analysis, field as fld, kernel, limit, potential, solver

S1 = potential.make_s1_model()
S2 = potential.make_s2_model()

GAUSS_PARAMS = {"strength": 4.0, "width": 0.48, "cut": 2.5}
ANNULUS_PARAMS = {"k": 1.3, "rho1": 0.2, "rho2": 1.0}


def random_admissible_field(dom, eps, seed, cap=0.8):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(dom.shape + (2,))
    norms = np.linalg.norm(vals, axis=-1, keepdims=True)
    radii = cap * S1.sigma_max * rng.uniform(0.0, 1.0, dom.shape)[..., None]
    return fld.OrderField(dom, eps, vals / norms * radii)


# ---------------------------------------------------------------------------
# energy-form identity


def test_primal_and_oscillation_energies_agree_on_random_fields():
    eps, h, n = 0.5, 0.1, 16
    for preset, params in (("annulus", ANNULUS_PARAMS), ("gaussian", GAUSS_PARAMS)):
        spec = kernel.kernel_preset(preset, 2, params)
        sampled = kernel.sample_on_lattice(spec, eps, h)
        dom = fld.ball_domain(n, h, fld.padded_radius(n, h, sampled.radius_cells))
        bulk = potential.make_bulk_potential(S1, sampled.intK_disc)
        for seed in range(20):
            f = random_admissible_field(dom, eps, seed)
            a = fld.energy_primal(f, sampled, bulk).total
            b = fld.energy_oscillation(f, sampled, bulk).total
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))


# ---------------------------------------------------------------------------
# dual potential against the primal entropy minimisation


def entropy_oracle(u):
    """Minimise the discrete relative entropy over the quadrature simplex
    subject to the moment constraint (SLSQP on log weights)."""
    n = len(S1.weights)

    def objective(logf):
        f = np.exp(logf)
        return float(np.sum(S1.weights * f * logf))

    def objective_jac(logf):
        f = np.exp(logf)
        return S1.weights * f * (logf + 1.0)

    def moment(logf):
        f = np.exp(logf)
        return S1.sigma.T @ (S1.weights * f) - u

    def moment_jac(logf):
        f = np.exp(logf)
        return S1.sigma.T * (S1.weights * f)

    def mass(logf):
        return float(np.sum(S1.weights * np.exp(logf)) - 1.0)

    def mass_jac(logf):
        return S1.weights * np.exp(logf)

    res = scipy_minimize(
        objective,
        np.zeros(n),
        jac=objective_jac,
        constraints=[
            {"type": "eq", "fun": moment, "jac": moment_jac},
            {"type": "eq", "fun": mass, "jac": mass_jac},
        ],
        method="SLSQP",
        options={"maxiter": 2000, "ftol": 1e-12},
    )
    assert res.success
    return res.fun


def test_singular_potential_matches_entropy_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        u = rng.uniform(0.1, 0.8) * S1.sigma_max * direction
        dual = potential.psi_s(S1, u[None])[0]
        assert dual == pytest.approx(entropy_oracle(u), abs=1e-5)


# ---------------------------------------------------------------------------
# mean-field map inversion


def test_dual_map_round_trips_through_the_moment_map():
    for model in (S1, S2):
        rng = np.random.default_rng(11)
        b = rng.uniform(-5.0, 5.0, (50, model.m))
        nrm = np.linalg.norm(b, axis=1, keepdims=True)
        b = np.where(nrm > 5.0, b * (5.0 / nrm), b)
        u = potential.lambda_inverse(model, b)
        b_back = potential.dual_map(model, u)
        assert np.max(np.abs(b_back - b)) <= 1e-8


# ---------------------------------------------------------------------------
# elastic tensor


def test_annulus_elastic_tensor_is_isotropic_with_the_radial_moment():
    spec = kernel.kernel_preset("annulus", 2, ANNULUS_PARAMS)
    tensor = kernel.elastic_tensor(spec)
    lam = tensor.isotropic_constant()
    assert lam is not None
    k, r1, r2 = ANNULUS_PARAMS["k"], ANNULUS_PARAMS["rho1"], ANNULUS_PARAMS["rho2"]
    m2 = k * 4.0 * np.pi * (r2**5 - r1**5) / 5.0
    assert lam == pytest.approx(m2 / 12.0, rel=0.01)
    # the two lower-bound constants differ (missing radial Jacobian in the
    # quoted one) and the report must flag that
    bounds = kernel.ellipticity_bounds(spec, tensor, kernel.check_assumptions(spec))
    assert bounds.jacobian_discrepancy
    assert bounds.lower != pytest.approx(bounds.lower_quoted, rel=1e-6)
    slack = 1e-10 * bounds.upper
    assert bounds.lower <= bounds.rayleigh_min + slack
    assert bounds.rayleigh_min <= bounds.rayleigh_max <= bounds.upper + slack


# ---------------------------------------------------------------------------
# limit-energy agreement along the interaction-range ladder


def test_localized_test_map_energy_converges_to_the_limit():
    h = 0.0125
    eps_ladder = [0.2, 0.1, 0.05]
    spec = kernel.kernel_preset("gaussian", 2, GAUSS_PARAMS)
    dom = fld.ball_domain(32, h, 0.19)
    kernels = [kernel.sample_on_lattice(spec, e, h) for e in eps_ladder]
    bulks = [potential.make_bulk_potential(S1, sk.intK_disc) for sk in kernels]
    tensor = kernel.elastic_tensor(spec)
    s0 = bulks[-1].manifold.s0
    # a smooth map whose gradient is supported well inside the probe ball, so
    # the finite interaction range near the ball boundary sees no activity
    x = dom.cell_centers()
    phi = 1.5 * np.exp(-np.sum(x * x, axis=-1) / (2.0 * 0.06**2))
    v = limit.ManifoldField(dom, s0, "s1", fld._orbit_field(phi, s0, 2))
    fields = [v.order_field(e) for e in eps_ladder]
    rows = limit.gamma_gaps(fields, kernels, bulks, v, tensor, [(np.zeros(3), 0.19)])
    gaps = [abs(r.gap) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.05 * rows[2].e_limit


# ---------------------------------------------------------------------------
# solver cross-validation and physicality


def test_fixed_point_and_descent_minimisers_agree_and_stay_physical():
    spec = kernel.kernel_preset("gaussian", 2, GAUSS_PARAMS)
    h, eps, n = 0.025, 0.1, 24
    sk = kernel.sample_on_lattice(spec, eps, h)
    dom = fld.ball_domain(n, h, fld.padded_radius(n, h, sk.radius_cells))
    bulk = potential.make_bulk_potential(S1, sk.intK_disc)
    bnd = fld.boundary_values("smooth-angle", dom, bulk.manifold.s0, 2, slope=1.5)
    f = fld.OrderField(dom, eps, bnd)
    r_el = solver.el_fixed_point(f.copy(), sk, bulk, solver.SolverConfig(tol=1e-9, max_iter=3000))
    r_gd = solver.gradient_descent(f.copy(), sk, bulk, solver.SolverConfig(tol=1e-6, max_iter=20000))
    assert r_el.converged and r_gd.converged
    assert r_el.residuals[-1] <= 1e-6
    assert r_gd.residuals[-1] <= 1e-6
    e_el, e_gd = r_el.energies[-1], r_gd.energies[-1]
    assert abs(e_el - e_gd) <= 1e-6 * abs(e_el)

    # the distance to the moment-set boundary stays uniformly positive as the
    # interaction range shrinks
    margins = []
    for eps_k in (0.2, 0.1, 0.05):
        h_k = eps_k / 4.0
        sk_k = kernel.sample_on_lattice(spec, eps_k, h_k)
        dom_k = fld.ball_domain(n, h_k, fld.padded_radius(n, h_k, sk_k.radius_cells))
        bulk_k = potential.make_bulk_potential(S1, sk_k.intK_disc)
        bnd_k = fld.boundary_values("smooth-angle", dom_k, bulk_k.manifold.s0, 2, slope=1.5)
        res = solver.el_fixed_point(
            fld.OrderField(dom_k, eps_k, bnd_k), sk_k, bulk_k,
            solver.SolverConfig(tol=1e-9, max_iter=3000),
        )
        assert res.converged and res.margin > 0.0
        margins.append(res.margin)
    assert min(margins) >= 0.5 * margins[0]


# ---------------------------------------------------------------------------
# shared common-grid minimiser sweep (smooth and vortex data)

EPS_LADDER = (0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def common_sweep():
    spec = kernel.kernel_preset("gaussian", 2, {"strength": 4.0, "width": 0.75, "cut": 2.5})
    h, n = 0.02, 64
    dom = fld.ball_domain(n, h, 0.26)
    tensor = kernel.elastic_tensor(spec)
    sampled = {e: kernel.sample_on_lattice(spec, e, h) for e in EPS_LADDER}
    bulks = {e: potential.make_bulk_potential(S1, sampled[e].intK_disc) for e in EPS_LADDER}
    solves = {}
    for preset, kw in (("smooth-angle", {"slope": 1.5}), ("vortex", {"winding": 1.0})):
        for e in EPS_LADDER:
            bnd = fld.boundary_values(preset, dom, bulks[e].manifold.s0, 2, **kw)
            f = fld.OrderField(dom, e, bnd)
            solves[(preset, e)] = solver.el_fixed_point(
                f, sampled[e], bulks[e], solver.SolverConfig(tol=1e-8, max_iter=500)
            )
            assert solves[(preset, e)].converged
    s0 = bulks[EPS_LADDER[-1]].manifold.s0
    limits = {}
    for preset, kw in (("smooth-angle", {"slope": 1.5}), ("vortex", {"winding": 1.0})):
        bdry = limit.orbit_boundary(preset, dom, s0, "s1", **kw)
        ref = limit.harmonic_minimize(bdry, tensor, tol=1e-7, max_iter=20000)
        assert ref.converged
        limits[preset] = ref.mfield
    return {
        "dom": dom,
        "sampled": sampled,
        "bulks": bulks,
        "solves": solves,
        "limits": limits,
    }


def test_scaled_gradient_bound_saturates_in_a_narrow_band(common_sweep):
    # with a line defect the max difference quotient grows like the inverse
    # interaction range, so the scaled estimate stays in a narrow band
    def lipschitz(preset, e):
        return solver.lipschitz_estimate(common_sweep["solves"][(preset, e)].field)

    scaled = [e * lipschitz("vortex", e) for e in EPS_LADDER]
    assert max(scaled) <= 3.0 * min(scaled)
    # smooth data never exceeds the same scaled bound
    for e in EPS_LADDER:
        assert e * lipschitz("smooth-angle", e) <= max(scaled)


def test_campanato_exponent_and_holder_seminorm_are_stable(common_sweep):
    dom = common_sweep["dom"]
    radii = [0.2, 0.16, 0.12, 0.09]
    center = np.zeros(3)
    mus = []
    for e in EPS_LADDER:
        f = common_sweep["solves"][("smooth-angle", e)].field
        # the small local scaled energy hypothesis must hold on the probe ball
        base = fld.local_energy(
            f, fld.ball_mask(dom, center, radii[0]),
            common_sweep["sampled"][e], common_sweep["bulks"][e],
        ) / radii[0]
        assert base <= 1.0
        prof = analysis.campanato_profile(
            f, center, radii, common_sweep["sampled"][e], common_sweep["bulks"][e]
        )
        assert prof.mu > 0.0
        mus.append(prof.mu)
    mu_mean = float(np.mean(mus))
    assert max(mus) - min(mus) <= 0.2 * abs(mu_mean)
    seminorms = [
        analysis.holder_seminorm(
            common_sweep["solves"][("smooth-angle", e)].field, center, 0.2, mu_mean
        )
        for e in EPS_LADDER
    ]
    assert max(seminorms) <= 2.0 * min(seminorms)


def test_local_energy_decays_under_ball_shrinking(common_sweep):
    e = 0.05
    f = common_sweep["solves"][("smooth-angle", e)].field
    rows = analysis.decay_lemma_check(
        f, np.zeros(3), 0.2,
        common_sweep["sampled"][e], common_sweep["bulks"][e],
        thetas=(0.5,), eta=1.0,
    )
    theta, ratio = rows[0]
    assert theta == 0.5
    assert ratio <= 0.75


def test_minimisers_converge_uniformly_off_the_flagged_set(common_sweep):
    dom = common_sweep["dom"]
    # smooth data: plain uniform convergence on all of the interior
    u0 = common_sweep["limits"]["smooth-angle"]
    fields = [common_sweep["solves"][("smooth-angle", e)].field for e in EPS_LADDER]
    rows = analysis.uniform_convergence_report(fields, u0)
    sup_all = [r[2] for r in rows]
    assert sup_all[0] > sup_all[1] > sup_all[2]

    # vortex data: the flagged set concentrates on the defect line and
    # convergence holds once it is excised
    u0 = common_sweep["limits"]["vortex"]
    sing = limit.singular_set(u0, [0.2, 0.14, 0.1], threshold=2.0)
    assert sing.flagged.any()
    pts = dom.cell_centers()[sing.flagged]
    axis_dist = np.hypot(pts[:, 0], pts[:, 1])
    assert axis_dist.max() <= 0.15
    fields = [common_sweep["solves"][("vortex", e)].field for e in EPS_LADDER]
    rows = analysis.uniform_convergence_report(fields, u0, singular=sing, dilation_cells=2)
    sup_off = [r[1] for r in rows]
    assert sup_off[0] > sup_off[1] > sup_off[2]


# ---------------------------------------------------------------------------
# finite-thickness boundary layer


def test_heavy_tail_layer_error_is_controlled_by_the_tail_bound():
    spec = kernel.kernel_preset("inverse6", 2, {"amplitude": 1.0, "r_on": 0.5, "r_full": 1.0})
    om_r = 0.15
    diffs = []
    for eps, n in ((0.2, 26), (0.1, 32), (0.05, 56)):
        h = eps / 4.0
        layer = 0.31 * eps**0.2
        r_max = max(2.5 * eps, layer + 0.04)
        sk = kernel.sample_on_lattice(spec, eps, h, r_max=r_max)
        # the truncated stencil must reach past the layer or the comparison
        # degenerates to the compact case
        assert sk.radius_cells * h > layer
        bulk = potential.make_bulk_potential(S1, sk.intK_disc)
        dom = fld.ball_domain(n, h, om_r)
        # the finite layer: the data cut to zero beyond om_r + layer
        cut = np.linalg.norm(dom.cell_centers(), axis=-1) > om_r + layer
        bnd = fld.boundary_values("smooth-angle", dom, bulk.manifold.s0, 2, slope=1.5)
        f_full = fld.OrderField(dom, eps, bnd)
        r_full = solver.el_fixed_point(f_full, sk, bulk, solver.SolverConfig(tol=1e-8, max_iter=2000))
        bnd_thin = bnd.copy()
        bnd_thin[cut] = 0.0
        f_thin = fld.OrderField(dom, eps, bnd_thin)
        r_thin = solver.el_fixed_point(f_thin, sk, bulk, solver.SolverConfig(tol=1e-8, max_iter=2000))
        assert r_full.converged and r_thin.converged
        om = dom.omega_mask
        diffs.append(float(np.linalg.norm(r_thin.field.values[om] - r_full.field.values[om],
                                          axis=-1).max()))
    # the layer, in units of eps, thickens as eps falls, so the kernel's tail
    # beyond it, and with it the cut's effect on the minimiser, shrinks:
    # 1.6e-2, 7.7e-4 and 1.2e-4 at eps 0.2, 0.1 and 0.05
    assert diffs[0] > diffs[1] > diffs[2]


# ---------------------------------------------------------------------------
# convolution dual path


def test_direct_and_transform_convolutions_agree():
    spec = kernel.kernel_preset("annulus", 2, ANNULUS_PARAMS)
    eps, h, n = 0.5, 0.1, 16
    sk = kernel.sample_on_lattice(spec, eps, h)
    dom = fld.ball_domain(n, h, fld.padded_radius(n, h, sk.radius_cells))
    rng = np.random.default_rng(12)
    for _ in range(3):
        vals = rng.standard_normal(dom.shape + (2,))
        a = fld._direct_convolve(sk, vals, h)
        b = fld.convolve(sk, vals, h)
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, float(np.max(np.abs(a))))
