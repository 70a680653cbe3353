import numpy as np
import pytest

from nllc import field as fld
from nllc import kernel, limit, potential
from nllc.errors import ResolutionMismatch

S1 = potential.make_s1_model()
ANNULUS = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
LT = kernel.elastic_tensor(ANNULUS)


def make_domain(n=24, h=None, omega_radius=None):
    h = h or 1.0 / n
    omega_radius = omega_radius or 0.35
    return fld.ball_domain(n, h, omega_radius)


def test_project_orbit_idempotent_and_norm():
    rng = np.random.default_rng(0)
    for kind, m in (("s1", 2), ("s2", 5)):
        y = rng.standard_normal((40, m))
        p = limit.project_orbit(y, 0.6, kind)
        assert np.allclose(np.linalg.norm(p, axis=-1), 0.6, atol=1e-12)
        pp = limit.project_orbit(p, 0.6, kind)
        assert np.allclose(pp, p, atol=1e-12)


def test_project_orbit_is_closest_point_s1():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((20, 2))
    p = limit.project_orbit(y, 0.6, "s1")
    # cheaper than any dense sample of the circle
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    circle = 0.6 * np.stack([np.cos(th), np.sin(th)], axis=-1)
    dists = np.linalg.norm(y[:, None, :] - circle[None], axis=-1).min(axis=1)
    assert np.all(np.linalg.norm(y - p, axis=-1) <= dists + 1e-9)


def test_limit_energy_linear_angle_closed_form():
    # angle phi = a*x1 on the S1 orbit: energy = lambda * (s0*a)^2 * |Omega|
    # for the scalar-isotropic annulus kernel, up to O(h^2) quadrature error
    s0, a = 0.6, 2.0
    gaps = []
    for n in (24, 48):
        dom = make_domain(n)
        v = limit.orbit_boundary("smooth-angle", dom, s0, "s1", slope=a)
        e = limit.limit_energy(v, LT)
        lam = LT.L[0, 0, 0, 0]
        vol = dom.n_omega * dom.cell_volume
        exact = lam * (s0 * a) ** 2 * vol
        gaps.append(abs(e - exact) / exact)
    assert gaps[0] < 0.02
    assert gaps[1] < gaps[0]


def test_dirichlet_energy_scales_with_lambda():
    dom = make_domain()
    v = limit.orbit_boundary("smooth-angle", dom, 0.6, "s1", slope=1.5)
    lam = LT.L[0, 0, 0, 0]
    unit = kernel.ElasticTensor(np.einsum("ij,ab->ijab", np.eye(3), np.eye(2)))
    assert limit.limit_energy(v, LT) == pytest.approx(lam * limit.limit_energy(v, unit), rel=1e-12)


def test_constant_boundary_zero_energy_and_fixed_point():
    dom = make_domain()
    v = limit.orbit_boundary("constant", dom, 0.6, "s1")
    assert limit.limit_energy(v, LT) == 0.0
    res = limit.harmonic_minimize(v, LT, tol=1e-10)
    assert res.converged
    assert res.iterations <= 2
    assert np.allclose(res.mfield.values, v.values, atol=1e-12)


def harmonic_angle_oracle(dom, angle_bc):
    """Solve the 6-point discrete Laplace equation for the angle on Omega."""
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import spsolve

    om = dom.omega_mask
    idx = -np.ones(dom.shape, dtype=int)
    cells = np.argwhere(om)
    idx[tuple(cells.T)] = np.arange(len(cells))
    A = lil_matrix((len(cells), len(cells)))
    b = np.zeros(len(cells))
    for r, (i, j, k) in enumerate(cells):
        A[r, r] = 6.0
        for d in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            ii, jj, kk = i + d[0], j + d[1], k + d[2]
            if om[ii, jj, kk]:
                A[r, idx[ii, jj, kk]] = -1.0
            else:
                b[r] += angle_bc[ii, jj, kk]
    sol = spsolve(A.tocsr(), b)
    out = angle_bc.copy()
    out[om] = sol
    return out


def test_harmonic_minimize_matches_sparse_laplace_oracle():
    # for the scalar-isotropic tensor the minimiser is the harmonic angle
    dom = make_domain(n=20, h=0.05, omega_radius=0.35)
    s0 = 0.6
    bc = limit.orbit_boundary("smooth-angle", dom, s0, "s1", slope=1.8)
    # non-harmonic interior start
    rng = np.random.default_rng(2)
    init = bc.values + 0.3 * rng.standard_normal(bc.values.shape)
    res = limit.harmonic_minimize(bc, LT, tol=1e-8, max_iter=4000, interior_init=init)
    assert res.converged and res.iterations <= 50
    oracle_angle = harmonic_angle_oracle(dom, fld.boundary_angle("smooth-angle", dom, slope=1.8))
    om = dom.omega_mask
    angle = np.arctan2(res.mfield.values[..., 1], res.mfield.values[..., 0])
    gap = np.abs(
        np.angle(np.exp(1j * (angle[om] - oracle_angle[om])))
    ).max()
    assert gap < 5e-3
    oracle = limit.ManifoldField(dom, s0, "s1", fld._orbit_field(oracle_angle, s0, 2))
    e_oracle = limit.limit_energy(oracle, LT)
    assert limit.limit_energy(res.mfield, LT) <= e_oracle * (1.0 + 1e-3)


def test_orbit_chart_frame_is_orthonormal_and_tangent():
    # the tangent-plane step moves along T: orthonormal columns, and the orbit
    # curve through x along each column leaves it only at second order
    rng = np.random.default_rng(5)
    for kind, m, d in (("s1", 2, 1), ("s2", 5, 2)):
        x, T = limit._orbit_chart(rng.standard_normal((30, m)), 0.6, kind)
        assert np.allclose(x, limit.project_orbit(x, 0.6, kind), atol=1e-12)
        assert T.shape == (30, m, d)
        assert np.allclose(np.einsum("cak,cal->ckl", T, T), np.eye(d), atol=1e-12)
        for k in range(d):
            for delta in (1e-3, 1e-4):
                off = limit.project_orbit(x + delta * T[..., k], 0.6, kind) - x - delta * T[..., k]
                assert np.max(np.abs(off)) <= 2.0 * delta**2


def test_harmonic_minimize_s2_vortex():
    # the s2 frame from project_orbit's eigh: from a perturbed start the solve
    # converges (the explicit step took 570 iterations), stays on the orbit,
    # never raises its energy beyond the driver's round-off band and reaches
    # the energy of the solve from the datum
    spec5 = kernel.kernel_preset("annulus", 5, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    L5 = kernel.elastic_tensor(spec5)
    dom = make_domain(n=16)
    v = limit.orbit_boundary("vortex", dom, 0.6, "s2", winding=1.0)
    init = v.values + 0.05 * np.random.default_rng(4).standard_normal(v.values.shape)
    res = limit.harmonic_minimize(v, L5, tol=1e-8, max_iter=4000, interior_init=init)
    assert res.converged and res.iterations <= 100
    assert len(res.cg_iterations) == len(res.energies) - 1
    vals = res.mfield.values
    assert np.max(np.abs(np.linalg.norm(vals, axis=-1) - 0.6)) <= 1e-12
    assert np.max(np.abs(limit.project_orbit(vals, 0.6, "s2") - vals)) <= 1e-12
    e = np.array(res.energies)
    assert np.all(np.diff(e) <= 1e-14 * (1.0 + np.abs(e[:-1])))
    from_datum = limit.harmonic_minimize(v, L5, tol=1e-8, max_iter=4000)
    assert from_datum.converged
    assert res.energies[-1] == pytest.approx(from_datum.energies[-1], rel=1e-12)


@pytest.mark.parametrize("m", [2, 5])
def test_scalar_elastic_tensor_is_exactly_isotropic(m):
    # L = lambda delta_ij delta_ab with no cross-block round-off, so each row
    # of the limit operator couples one component of a cell and its 6 neighbours
    dom = fld.ball_domain(12, 1.0 / 12, 0.3)
    for name in [name for name in kernel.PRESETS if name != "gaussian-nematic"]:
        spec = kernel.kernel_preset(name, m)
        assert spec.mode == "scalar"
        L = kernel.elastic_tensor(spec).L
        _, K = limit._limit_operator(dom, L.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m))
        if name == "zero":
            assert not L.any() and K.cols.shape[1] == 0
            continue
        quadrature = kernel._tensor_quadrature(spec).L
        assert np.count_nonzero(L) == 3 * m
        assert np.max(np.abs(L - quadrature)) <= 1e-14 * np.max(np.abs(quadrature))
        assert K.cols.shape[1] == 7


def test_harmonic_minimize_keeps_boundary_bitwise():
    dom = make_domain(n=16)
    bc = limit.orbit_boundary("smooth-angle", dom, 0.6, "s1", slope=1.5)
    before = bc.values[~dom.omega_mask].copy()
    res = limit.harmonic_minimize(bc, LT, tol=1e-6, max_iter=3000)
    assert res.converged
    assert np.allclose(res.mfield.values[~dom.omega_mask], before, atol=1e-12)


@pytest.mark.parametrize("kind, m", [("s1", 2), ("s2", 5)])
def test_harmonic_minimize_projects_no_cell_beyond_omega(kind, m, monkeypatch):
    # the trace is the checked datum's, so neither the steps nor the result
    # retract anything but Omega's cells
    spec = kernel.kernel_preset("annulus", m, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    L = kernel.elastic_tensor(spec)
    dom = make_domain(n=16)
    bc = limit.orbit_boundary("vortex", dom, 0.6, kind, winding=1.0)
    init = bc.values + 0.05 * np.random.default_rng(5).standard_normal(bc.values.shape)
    shapes, project = [], limit.project_orbit

    def recording(y, s0, kind):
        shapes.append(np.shape(y))
        return project(y, s0, kind)

    monkeypatch.setattr(limit, "project_orbit", recording)
    res = limit.harmonic_minimize(bc, L, tol=1e-6, max_iter=4000, interior_init=init)
    assert res.converged and shapes
    assert max(np.prod(shape[:-1]) for shape in shapes) == dom.n_omega
    outside = ~dom.omega_mask
    assert np.array_equal(res.mfield.values[outside], bc.values[outside])
    assert np.max(np.abs(project(res.mfield.values, 0.6, kind) - res.mfield.values)) <= 1e-12


def test_harmonic_minimize_out_of_budget_returns_its_last_iterate():
    # the s1 vortex above from its perturbed start, cut after one step
    dom = make_domain(n=16)
    bc = limit.orbit_boundary("vortex", dom, 0.6, "s1", winding=1.0)
    init = bc.values + 0.05 * np.random.default_rng(5).standard_normal(bc.values.shape)
    res = limit.harmonic_minimize(bc, LT, tol=1e-6, max_iter=1, interior_init=init)
    assert res.reason == "max_iterations" and res.iterations == 1 and not res.converged
    assert len(res.cg_iterations) == len(res.energies) - 1 == len(res.residuals)
    outside = ~dom.omega_mask
    assert np.array_equal(res.mfield.values[outside], bc.values[outside])
    om_vals = res.mfield.values[dom.omega_mask]
    assert np.max(np.abs(np.linalg.norm(om_vals, axis=-1) - 0.6)) <= 1e-12


def test_s2_frame_equivariance():
    # a global frame rotation about the x3-axis leaves the energy invariant
    spec5 = kernel.kernel_preset("annulus", 5, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    L5 = kernel.elastic_tensor(spec5)
    dom = make_domain(n=16)
    v = limit.orbit_boundary("smooth-angle", dom, 0.6, "s2", slope=1.5)
    e1 = limit.limit_energy(v, L5)
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    w = limit.ManifoldField(dom, 0.6, "s2",
                            0.6 * potential.q_tensor_coords(limit._director_of(v.values) @ R.T))
    e2 = limit.limit_energy(w, L5)
    assert e2 == pytest.approx(e1, rel=1e-12)


def test_singular_set_smooth_empty_vortex_concentrated():
    dom = make_domain(n=32, h=1.0 / 32, omega_radius=0.4)
    radii = [0.25, 0.2, 0.15]
    smooth = limit.orbit_boundary("smooth-angle", dom, 0.6, "s1", slope=1.5)
    rep_s = limit.singular_set(smooth, radii, threshold=np.inf)
    assert rep_s.flagged_fraction == 0.0
    vortex = limit.orbit_boundary("vortex", dom, 0.6, "s1", winding=1.0)
    dens_v = limit.singular_set(vortex, radii, threshold=np.inf).densities[-1]
    # the density concentrates on the x3-axis: on-axis beats off-axis
    c = dom.shape[0] // 2
    on_axis = dens_v[c, c, c]
    off_axis = dens_v[c + 8, c + 8, c]
    assert on_axis > 3 * off_axis
    # a finite threshold flags a thin set around the axis
    rep_v = limit.singular_set(vortex, radii, threshold=float(0.5 * on_axis))
    assert 0 < rep_v.flagged_fraction < 0.2
    x = dom.cell_centers()
    axis_dist = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
    assert axis_dist[rep_v.flagged].max() < 0.25


def test_singular_set_radius_guard():
    dom = make_domain(n=16)
    v = limit.orbit_boundary("constant", dom, 0.6, "s1")
    with pytest.raises(ResolutionMismatch):
        limit.singular_set(v, [2.0 * dom.h], threshold=1.0)


def test_singular_set_rejects_a_repeated_radius():
    dom = make_domain(n=16)
    v = limit.orbit_boundary("constant", dom, 0.6, "s1")
    with pytest.raises(ValueError, match="repeated radius"):
        limit.singular_set(v, [0.3, 0.3], threshold=1.0)


def test_gamma_limsup_constant_map_gaps_vanish():
    # constant orbit map: both F_eps and the limit energy are zero
    h = 1.0 / 24
    dom = make_domain(n=24, h=h, omega_radius=0.25)
    eps_ladder = [0.5, 0.4]
    kernels = [kernel.sample_on_lattice(ANNULUS, e, h) for e in eps_ladder]
    bulks = [potential.make_bulk_potential(S1, sk.intK_disc) for sk in kernels]
    s0 = bulks[0].manifold.s0
    v = limit.orbit_boundary("constant", dom, s0, "s1")
    fields = [v.order_field(e) for e in eps_ladder]
    # the ball of Omega's radius is Omega
    assert np.array_equal(fld.ball_mask(dom, np.zeros(3), 0.25), dom.omega_mask)
    rows = limit.gamma_gaps(fields, kernels, bulks, v, LT, [(np.zeros(3), 0.25)])
    for row, bulk in zip(rows, bulks):
        # per-eps vacuum radius may differ slightly from s0: measure the
        # residual bulk offset and allow it in the gap
        off = float(potential.psi_b(bulk, v.values[dom.omega_mask][:1])[0])
        slack = abs(off) * dom.n_omega * dom.cell_volume / row.eps**2 + 1e-9
        assert abs(row.gap) <= slack


def test_gamma_limsup_eps_resolution_guard():
    h = 1.0 / 24
    dom = make_domain(n=24, h=h, omega_radius=0.25)
    sk = kernel.sample_on_lattice(ANNULUS, 0.5, h)
    bulk = potential.make_bulk_potential(S1, sk.intK_disc)
    fake = kernel.SampledKernel(
        sk.spec, 3.0 * h, sk.h, sk.radius_cells, sk.values, sk.r_trunc, sk.trunc_error
    )
    v = limit.orbit_boundary("constant", dom, bulk.manifold.s0, "s1")
    with pytest.raises(ResolutionMismatch):
        limit.gamma_gaps([v.order_field(fake.eps)], [fake], [bulk], v, LT, [(np.zeros(3), 0.25)])


def test_gamma_gaps_minimiser_eps_resolution_guard():
    # a minimiser field whose eps lies below 4h is refused, whatever the kernel's eps
    h = 1.0 / 24
    dom = make_domain(n=24, h=h, omega_radius=0.25)
    sk = kernel.sample_on_lattice(ANNULUS, 0.5, h)
    bulk = potential.make_bulk_potential(S1, sk.intK_disc)
    v = limit.orbit_boundary("constant", dom, bulk.manifold.s0, "s1")
    u = fld.OrderField(dom, 3.0 * h, v.values.copy())
    with pytest.raises(ResolutionMismatch):
        limit.gamma_gaps([u], [sk], [bulk], v, LT, [(np.zeros(3), 0.2)])


def test_gamma_liminf_collapses_to_limsup_on_same_data():
    # feeding the recovery map itself as "minimisers" gives the upper-bound
    # gaps and zero L2 gaps: a definitional cross-check of the one table
    h = 1.0 / 24
    dom = make_domain(n=24, h=h, omega_radius=0.3)
    eps_ladder = [0.5, 0.4]
    kernels = [kernel.sample_on_lattice(ANNULUS, e, h) for e in eps_ladder]
    bulks = [potential.make_bulk_potential(S1, sk.intK_disc) for sk in kernels]
    s0 = bulks[0].manifold.s0
    v = limit.orbit_boundary("smooth-angle", dom, s0, "s1", slope=1.5)
    balls = [((0.0, 0.0, 0.0), 0.2)]
    fields = [v.order_field(e) for e in eps_ladder]
    rows = limit.gamma_gaps(fields, kernels, bulks, v, LT, balls)
    mask = fld.ball_mask(dom, balls[0][0], balls[0][1])
    for row, sk, bulk in zip(rows, kernels, bulks):
        f_direct = fld.local_energy(v.order_field(sk.eps), mask, sk, bulk)
        assert (row.eps, row.center, row.radius) == (sk.eps, balls[0][0], balls[0][1])
        assert row.f_eps == pytest.approx(f_direct, rel=1e-12)
        assert row.l2_half == 0.0
        assert row.e_limit == pytest.approx(limit.limit_energy(v, LT, region=mask), rel=1e-12)
        assert row.gap == row.f_eps - row.e_limit


def test_orbit_boundary_matches_field_presets():
    # one preset path: the limit solve's datum is the EL solves' datum, on the orbit
    dom = make_domain(n=16)
    s0 = 0.55
    for kind, m in (("s1", 2), ("s2", 5)):
        for preset, kw in (("constant", {}), ("smooth-angle", {"slope": 1.2}),
                           ("vortex", {"winding": 1.0})):
            mf = limit.orbit_boundary(preset, dom, s0, kind, **kw)
            arr = fld.boundary_values(preset, dom, s0, m, **kw)
            assert np.array_equal(mf.values, arr), (kind, preset)
            assert np.allclose(limit.project_orbit(arr, s0, kind), arr, rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError):
        limit.orbit_boundary("nope", dom, s0, "s1")


@pytest.mark.parametrize("preset, key", [("vortex", "slope"), ("constant", "winding")])
def test_boundary_presets_reject_a_key_their_preset_does_not_read(preset, key):
    # such a key was dropped silently: slope under vortex drew the winding-1 vortex
    dom = make_domain(n=8)
    with pytest.raises(ValueError, match=f"{key}: not a parameter of the {preset} preset"):
        fld.boundary_values(preset, dom, 0.6, 2, **{key: 1.5})
    with pytest.raises(ValueError, match=f"{key}: not a parameter of the {preset} preset"):
        limit.orbit_boundary(preset, dom, 0.6, "s1", **{key: 1.5})


def test_manifold_field_rejects_values_off_the_orbit():
    dom = make_domain(n=8)
    s0 = 0.6
    with pytest.raises(ValueError):  # wrong shape: s2 coordinates for an s1 field
        limit.ManifoldField(dom, s0, "s1", np.zeros(dom.shape + (5,)))
    e1 = np.zeros(dom.shape + (5,))
    e1[..., 0] = s0
    with pytest.raises(ValueError):  # s0 * e1 is biaxial, not a uniaxial state
        limit.ManifoldField(dom, s0, "s2", e1)
    with pytest.raises(ValueError):  # on the circle of radius 2 s0
        limit.ManifoldField(dom, s0, "s1", fld.boundary_values("vortex", dom, 2.0 * s0, 2))
    with pytest.raises(ValueError):
        limit.ManifoldField(dom, s0, "s3", e1)


def forward_objective_reference(values, L, dom):
    """Forward-difference energy and Euclidean gradient on the whole box with
    np.roll shifts: the einsum form the assembled operator replaces."""
    omega = dom.omega_mask
    h = dom.h
    g = np.zeros(values.shape[:3] + (3,) + values.shape[3:])
    for i in range(3):
        live = omega | np.roll(omega, -1, axis=i)
        d = (np.roll(values, -1, axis=i) - values) / h
        g[..., i, :] = np.where(live[..., None], d, 0.0)
    flux = np.einsum("ijab,xyzjb->xyzia", L.L, g)
    energy = float(np.sum(flux * g)) * dom.cell_volume
    grad = np.zeros_like(values)
    for i in range(3):
        grad += (np.roll(flux[..., i, :], 1, axis=i) - flux[..., i, :]) * (2.0 / h)
    return energy, grad


def cube_domain(n, h, half_width):
    """Cube Omega of the given half width centred in an n^3 box: a max-norm
    mask, which Domain takes as it takes any other."""
    c = np.abs(np.arange(n) - (n - 1) / 2.0) * h
    return fld.Domain(h, np.maximum.reduce(np.meshgrid(c, c, c, indexing="ij")) <= half_width,
                      half_width)


@pytest.mark.parametrize(
    "tensor, dom",
    [
        (LT, fld.ball_domain(14, 1.0 / 14, 0.35)),
        (LT, cube_domain(12, 1.0 / 12, 0.3)),
        (kernel.elastic_tensor(kernel.kernel_preset(
            "gaussian-nematic", 5, {"strength": 3.0, "width": 0.3, "cut": 2.5, "f2": 0.5, "f3": 0.25}
        )), fld.ball_domain(12, 1.0 / 12, 0.3)),
    ],
    ids=["annulus-ball", "annulus-cube", "nematic-ball"],
)
def test_limit_operator_matches_forward_difference_reference(tensor, dom):
    m = tensor.L.shape[-1]
    rng = np.random.default_rng(3)
    values = rng.standard_normal(dom.shape + (m,))
    e_ref, g_ref = forward_objective_reference(values, tensor, dom)
    M = tensor.L.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)
    cells, K = limit._limit_operator(dom, M)
    # Omega's cells lead, as harmonic_minimize reads them as a leading slice
    assert np.array_equal(cells[:dom.n_omega], np.flatnonzero(dom.omega_mask))
    # symmetric: x.Ky = y.Kx on random vectors
    a, b = rng.standard_normal((2, m * cells.size))
    assert np.dot(a, K @ b) == pytest.approx(np.dot(b, K @ a), rel=1e-12)
    x = values.reshape(-1, m)[cells]
    grad = 2.0 * (K @ x.reshape(-1)).reshape(x.shape)
    energy = 0.5 * dom.cell_volume * float(np.vdot(x, grad))
    assert energy == pytest.approx(e_ref, rel=1e-12)
    # the descent reads the gradient on Omega; off Omega the reference also
    # carries cross-axis flux through links that do not count
    om = dom.omega_mask.reshape(-1)[cells]
    g_om = g_ref[dom.omega_mask]
    assert np.max(np.abs(grad[om] - g_om)) <= 1e-12 * np.max(np.abs(g_om))
    # values on cells no live link touches do not enter the reference energy
    rest = np.ones(values.size // m, dtype=bool)
    rest[cells] = False
    moved = values.copy().reshape(-1, m)
    moved[rest] += 1.0
    assert forward_objective_reference(moved.reshape(values.shape), tensor, dom)[0] == pytest.approx(
        e_ref, rel=1e-12
    )


def test_harmonic_minimize_rejects_omega_on_the_box_face():
    # padding 0: the forward links would wrap around the box
    dom = fld.ball_domain(10, 0.1, 0.5)
    assert dom.padding_cells() == 0
    bc = limit.orbit_boundary("smooth-angle", dom, 0.6, "s1", slope=1.5)
    with pytest.raises(ResolutionMismatch):
        limit.harmonic_minimize(bc, LT, tol=1e-6, max_iter=50)


def test_central_difference_energies_reject_omega_on_the_box_face():
    # padding 0: the central differences would wrap around the box
    dom = fld.ball_domain(10, 0.1, 0.5)
    assert dom.padding_cells() == 0
    v = limit.orbit_boundary("smooth-angle", dom, 0.6, "s1", slope=1.5)
    with pytest.raises(ResolutionMismatch):
        limit.limit_energy(v, LT)
