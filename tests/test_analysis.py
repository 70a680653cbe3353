import numpy as np
import pytest
import scipy.ndimage

from nllc import analysis
from nllc import field as fld
from nllc import kernel, limit, potential
from nllc.errors import PreconditionNotMet, ResolutionMismatch

S1 = potential.make_s1_model()
GAUSS = kernel.kernel_preset(
    "gaussian", 2, {"strength": 4.0, "width": 0.3, "cut": 2.5}
)


def setup_case(eps=0.2, h=1.0 / 32, n=32):
    sampled = kernel.sample_on_lattice(GAUSS, eps, h)
    omega_radius = fld.padded_radius(n, h, sampled.radius_cells)
    dom = fld.ball_domain(n, h, omega_radius)
    bulk = potential.make_bulk_potential(S1, sampled.intK_disc)
    return dom, sampled, bulk


def smooth_field(dom, sampled, bulk, slope=1.5):
    bnd = fld.boundary_values("smooth-angle", dom, bulk.manifold.s0, 2, slope=slope)
    return fld.OrderField(dom, sampled.eps, bnd)


def rough_field(dom, sampled, bulk, seed=0, rough=0.25):
    rng = np.random.default_rng(seed)
    f = smooth_field(dom, sampled, bulk)
    noise = rough * bulk.manifold.s0 * rng.standard_normal(dom.shape + (2,))
    f.values += noise * dom.omega_mask[..., None]
    norms = np.linalg.norm(f.values, axis=-1, keepdims=True)
    cap = 0.9 * S1.sigma_max
    f.values = np.where(norms > cap, f.values * cap / norms, f.values)
    return f


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_dilate_matches_scipy_binary_dilation(k):
    # scipy's iterations=0 means "repeat until nothing changes", so the
    # oracle for k = 0 is the mask itself
    rng = np.random.default_rng(k)
    for shape, density in (((9, 8, 7), 0.03), ((6, 6, 6), 0.15)):
        mask = rng.random(shape) < density
        mask[0, 2, 3] = mask[-1, -1, 1] = mask[4, 0, -1] = True  # on box faces and an edge
        ref = scipy.ndimage.binary_dilation(mask, iterations=k) if k else mask
        assert np.array_equal(analysis._dilate(mask, k), ref)


def test_campanato_linear_field_exponent_one():
    dom, sampled, bulk = setup_case()
    f = smooth_field(dom, sampled, bulk, slope=1.5)
    prof = analysis.campanato_profile(f, np.zeros(3), [0.3, 0.25, 0.2, 0.15])
    assert prof.mu == pytest.approx(1.0, abs=0.1)
    assert np.isnan(prof.alpha)


def test_campanato_noise_exponent_near_zero():
    dom, sampled, bulk = setup_case()
    rng = np.random.default_rng(3)
    vals = 0.3 * rng.standard_normal(dom.shape + (2,))
    f = fld.OrderField(dom, sampled.eps, vals)
    prof = analysis.campanato_profile(f, np.zeros(3), [0.3, 0.25, 0.2, 0.15])
    assert abs(prof.mu) < 0.2


def test_campanato_with_kernel_records_energy_exponent():
    dom, sampled, bulk = setup_case()
    f = smooth_field(dom, sampled, bulk, slope=1.5)
    prof = analysis.campanato_profile(
        f, np.zeros(3), [0.3, 0.25, 0.2, 0.15], sampled=sampled, bulk=bulk
    )
    assert np.isfinite(prof.alpha)
    assert np.all(prof.scaled_energy >= 0)


def test_campanato_radius_guard():
    dom, sampled, bulk = setup_case()
    f = smooth_field(dom, sampled, bulk)
    with pytest.raises(ResolutionMismatch):
        analysis.campanato_profile(f, np.zeros(3), [0.3, 2.0 * dom.h])


def test_campanato_empty_ladder_is_a_value_error():
    # it raised a raw IndexError reading the smallest radius; singular_set's message
    dom, sampled, bulk = setup_case()
    f = smooth_field(dom, sampled, bulk)
    with pytest.raises(ValueError, match="empty radii ladder"):
        analysis.campanato_profile(f, np.zeros(3), [])


def test_holder_seminorm_exact_on_linear_field():
    dom, _, _ = setup_case()
    vals = np.zeros(dom.shape + (2,))
    vals[..., 0] = dom.cell_centers()[..., 0]
    f = fld.OrderField(dom, 0.2, vals)
    assert analysis.holder_seminorm(f, np.zeros(3), 0.2, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )


def test_holder_seminorm_sampled_lower_bounds_exact():
    dom, sampled, bulk = setup_case()
    f = rough_field(dom, sampled, bulk, seed=4)
    exact = analysis.holder_seminorm(f, np.zeros(3), 0.2, 0.5)
    approx = analysis.holder_seminorm(f, np.zeros(3), 0.2, 0.5, pair_budget=50_000)
    assert approx <= exact + 1e-12
    assert approx >= 0.5 * exact


def test_decay_lemma_smooth_field_ratios():
    dom, sampled, bulk = setup_case()
    f = smooth_field(dom, sampled, bulk, slope=1.5)
    rows = analysis.decay_lemma_check(
        f, np.zeros(3), 0.34, sampled, bulk,
        thetas=(0.5, 0.4), eta=np.inf, eps_star=0.6,
    )
    for theta, ratio in rows:
        assert 0 <= ratio < np.inf


def test_decay_lemma_constant_field_zero_ratios():
    dom, sampled, bulk = setup_case()
    e = potential.representative_direction(S1)
    bnd = fld.boundary_values("constant", dom, bulk.manifold.s0, 2)
    f = fld.OrderField(dom, sampled.eps, bnd)
    rows = analysis.decay_lemma_check(
        f, np.zeros(3), 0.34, sampled, bulk,
        thetas=(0.5, 0.4), eta=np.inf, eps_star=0.6,
    )
    assert all(r == 0.0 for _, r in rows)


def test_decay_lemma_preconditions():
    dom, sampled, bulk = setup_case()
    f = rough_field(dom, sampled, bulk, seed=5)
    with pytest.raises(PreconditionNotMet):
        analysis.decay_lemma_check(
            f, np.zeros(3), 0.34, sampled, bulk,
            thetas=(0.5, 0.4), eta=1e-15, eps_star=0.6,
        )
    with pytest.raises(ResolutionMismatch):
        analysis.decay_lemma_check(f, np.zeros(3), 0.1, sampled, bulk)


def test_uniform_convergence_report_and_flagged_exclusion():
    dom, sampled, bulk = setup_case()
    s0 = bulk.manifold.s0
    u0 = limit.orbit_boundary("smooth-angle", dom, s0, "s1", slope=1.5)
    same = fld.OrderField(dom, 0.2, u0.values.copy())
    rows = analysis.uniform_convergence_report([same], u0)
    assert rows[0][1] == 0.0 and rows[0][2] == 0.0
    # perturb one interior cell and flag it: the off-set sup ignores it
    bad = fld.OrderField(dom, 0.2, u0.values.copy())
    idx = tuple(np.argwhere(dom.omega_mask)[0])
    bad.values[idx + (0,)] += 0.2
    flagged = np.zeros(dom.shape, dtype=bool)
    flagged[idx] = True
    report = analysis.SingularSetReport(
        np.array([0.2]), np.zeros((1,) + dom.shape), flagged, 1.0
    )
    rows = analysis.uniform_convergence_report([bad], u0, singular=report)
    assert rows[0][1] == 0.0
    assert rows[0][2] == pytest.approx(0.2, rel=1e-12)


def test_uniform_convergence_report_is_nan_when_the_flagged_set_covers_omega():
    # no cell is left off the dilated flagged set: the off-set sup is undefined,
    # not an exact 0.0
    h = 0.1
    dom = fld.ball_domain(12, h, 0.35)
    u0 = limit.orbit_boundary("vortex", dom, 0.5, "s1")
    f = fld.OrderField(dom, 0.3, 0.8 * u0.values)
    report = analysis.SingularSetReport(
        np.array([4.0 * h]), np.zeros((1,) + dom.shape), dom.omega_mask.copy(), 1.0
    )
    (eps, off, full), = analysis.uniform_convergence_report([f], u0, singular=report)
    assert eps == 0.3
    assert np.isnan(off)
    assert full == pytest.approx(0.1, rel=1e-12)
