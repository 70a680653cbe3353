import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nllc import potential
from nllc.errors import OutsideMomentDomain

# a divide-by-zero at b = 0 or u = 0 must fail the suite, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

S1 = potential.make_s1_model()
S2 = potential.make_s2_model()
# the s1 nodes under another name: the quadrature path, reference for the closed form
S1_NODES = potential.MicroModel("s1-nodes", 2, S1.sigma, S1.weights, 1.0)
# the s2 nodes without their octant fold: the node sums, reference for the eigenframe path
S2_NODES = potential.MicroModel("s2-nodes", 5, S2.sigma, S2.weights, 1.0)


def lnz_trapezoid_oracle(b, n=20001):
    # dense trapezoid rule for lnZ(b) = log fint exp(b . sigma(theta)) dtheta
    theta = np.linspace(0.0, 2.0 * np.pi, n)
    sigma = np.stack([np.cos(2 * theta), np.sin(2 * theta)], axis=-1)
    vals = np.exp(sigma @ b)
    return float(np.log(np.trapezoid(vals, theta) / (2.0 * np.pi)))


def test_log_partition_matches_trapezoid_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = rng.uniform(-4, 4, 2)
        mine = potential.log_partition(S1, b[None])[0]
        assert mine == pytest.approx(lnz_trapezoid_oracle(b), abs=1e-8)


def test_lambda_inverse_is_gradient_of_log_partition():
    # and the covariance, summed over the nodes, is the symmetric Jacobian of
    # the closed-form and folded lambda_inverse
    rng = np.random.default_rng(1)
    d = 1e-6
    cases = [(S1, rng.uniform(-2, 2, (5, 2))), (S2, rng.uniform(-2, 2, (5, 5))),
             (S1, _s1_duals()), (S2, _generic_duals(11))]
    for model, b in cases:
        u = potential.lambda_inverse(model, b)
        cov = potential.covariance(model, b)
        assert np.allclose(cov, np.swapaxes(cov, -1, -2), rtol=0.0, atol=1e-15)
        for k in range(model.m):
            e = np.zeros(model.m)
            e[k] = d
            fd = (
                potential.log_partition(model, b + e) - potential.log_partition(model, b - e)
            ) / (2 * d)
            assert np.allclose(u[:, k], fd, atol=1e-7)
            fd_u = (
                potential.lambda_inverse(model, b + e) - potential.lambda_inverse(model, b - e)
            ) / (2 * d)
            assert np.allclose(cov[:, :, k], fd_u, atol=1e-7)


def test_dual_map_inverts_lambda_inverse():
    rng = np.random.default_rng(2)
    for model in (S1, S2):
        b = rng.uniform(-5, 5, (50, model.m))
        b = np.where(np.linalg.norm(b, axis=1, keepdims=True) > 5, b * (5 / np.linalg.norm(b, axis=1, keepdims=True)), b)
        u = potential.lambda_inverse(model, b)
        b_back = potential.dual_map(model, u)
        u_back = potential.lambda_inverse(model, b_back)
        # b is only determined up to the kernel of the quadrature but the
        # moment round-trip is tight
        assert np.max(np.abs(u_back - u)) < 1e-10


def test_psi_s_matches_primal_entropy_minimisation():
    # independent oracle: minimise sum w f log f over the 256-node simplex with
    # the moment constraint, via scipy SLSQP on the log-weights
    from scipy.optimize import minimize as scipy_minimize

    rng = np.random.default_rng(3)
    model = S1
    for _ in range(4):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        u = 0.6 * model.sigma_max * direction

        n = len(model.weights)

        def objective(logf):
            f = np.exp(logf)
            return float(np.sum(model.weights * f * logf))

        def objective_jac(logf):
            f = np.exp(logf)
            return model.weights * f * (logf + 1.0)

        def moment(logf):
            f = np.exp(logf)
            return model.sigma.T @ (model.weights * f) - u

        def moment_jac(logf):
            return model.sigma.T * (model.weights * np.exp(logf))

        def mass(logf):
            return float(np.sum(model.weights * np.exp(logf)) - 1.0)

        def mass_jac(logf):
            return model.weights * np.exp(logf)

        res = scipy_minimize(
            objective,
            np.zeros(n),
            jac=objective_jac,
            constraints=[
                {"type": "eq", "fun": moment, "jac": moment_jac},
                {"type": "eq", "fun": mass, "jac": mass_jac},
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-12},
        )
        assert res.success
        dual = potential.psi_s(model, u[None])[0]
        assert dual == pytest.approx(res.fun, abs=1e-5)


def test_psi_s_nonnegative_and_zero_at_origin():
    assert potential.psi_s(S1, np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(4)
    u = 0.7 * rng.standard_normal((20, 2))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    u = np.where(norms > 0.9, u * 0.9 / norms, u)
    assert np.all(potential.psi_s(S1, u) >= -1e-12)


def test_dual_map_rejects_boundary_moments():
    u = np.array([[S1.sigma_max, 0.0]])
    with pytest.raises(OutsideMomentDomain):
        potential.dual_map(S1, u)


def test_minimal_distribution_reproduces_moment():
    rng = np.random.default_rng(5)
    for model in (S1, S2):
        direction = rng.standard_normal(model.m)
        direction /= np.linalg.norm(direction)
        u = 0.5 * model.sigma_max * direction
        b = potential.dual_map(model, u)
        f = np.exp(model.sigma @ b - potential.log_partition(model, b))
        assert np.all(f > 0)
        assert np.sum(model.weights * f) == pytest.approx(1.0, abs=1e-10)
        back = model.sigma.T @ (model.weights * f)
        assert np.allclose(back, u, atol=1e-10)


def test_bulk_potential_vacuum_and_normalisation():
    # isotropic coupling strong enough to order the system
    for model in (S1, S2):
        kappa = 5.0
        bulk = potential.make_bulk_potential(model, kappa * np.eye(model.m))
        s0 = bulk.manifold.s0
        assert 0 < s0 < model.sigma_max
        assert not bulk.manifold.degenerate
        # psi_b vanishes on the orbit and is positive at the origin
        e = potential.representative_direction(model)
        on_orbit = potential.psi_b(bulk, (s0 * e)[None])[0]
        assert on_orbit == pytest.approx(0.0, abs=1e-9)
        assert potential.psi_b(bulk, np.zeros((1, model.m)))[0] > 0
        # and is nonnegative on a sample of the moment set; moments of the
        # form lambda_inverse(b) are guaranteed admissible
        rng = np.random.default_rng(6)
        b = 3.0 * rng.standard_normal((50, model.m))
        sample = potential.lambda_inverse(model, b)
        assert np.all(potential.psi_b(bulk, sample) >= -1e-9)


@pytest.mark.parametrize("model, kappa", [(S1, 2.1), (S1, 5.0), (S1, 14.0), (S2, 5.0), (S2, 20.0),
                                          (S1, 20.0), (S1, 45.0), (S2, 8.0)])
def test_vacuum_radius_matches_brentq(model, kappa):
    # the vacuum is found along the dual ray; brentq on the radial derivative
    # d/ds [psi_s(s e) - kappa s^2/2] = Lambda(s e).e - kappa s is the oracle
    c0, s0, _ = potential.compute_c0_and_NN(model, kappa * np.eye(model.m))
    e = potential.representative_direction(model)

    def d(s):
        return potential.dual_map(model, s * e) @ e - kappa * s

    ref = brentq(d, s0 - 1e-3, s0 + 1e-3, xtol=1e-12)
    ref_c0 = 0.5 * kappa * ref**2 - float(potential.psi_s(model, ref * e))
    assert s0 == pytest.approx(ref, rel=0.0, abs=1e-12)
    assert c0 == pytest.approx(ref_c0, rel=1e-12)


# intK_disc of the gaussian-nematic kernel (strength 8, f2 0.3, f3 -0.2, width
# 0.75, cut 2.5) sampled at eps 0.3, h 0.1: the lattice splits it into E and T2
LATTICE_K_E, LATTICE_K_T = 8.375888714559558, 8.37823380103858
RAY_001 = potential.representative_direction(S2)
RAY_111 = potential.q_tensor_coords(np.full(3, 1.0 / np.sqrt(3.0)))


@pytest.mark.parametrize("k_E, k_T", [(5.0, 5.3), (5.3, 5.0), (LATTICE_K_E, LATTICE_K_T),
                                      (LATTICE_K_T, LATTICE_K_E), (5.0, 5.0 * (1 + 1e-13))],
                         ids=["T2-above", "E-above", "lattice", "lattice-swapped", "round-off-tie"])
def test_split_intK_orbit_takes_the_ray_of_the_larger_coupling(monkeypatch, k_E, k_T):
    # a lattice splits intK into E and T2 blocks; the orbit is the one radial
    # ray along [111] (pure T2) when k_T > k_E, else along [001] (pure E, also
    # on a round-off tie), and no random numbers are drawn
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: pytest.fail("compute_c0_and_NN drew random numbers"))
    intK = np.diag([k_E, k_E, k_T, k_T, k_T])
    e = RAY_111 if k_T > k_E * (1 + 1e-12) else RAY_001
    c0, s0, manifold = potential.compute_c0_and_NN(S2, intK)
    _, ref_s0, ref_min = potential._radial_ray_minimum(S2, e, float(e @ intK @ e))
    assert (s0, c0) == (ref_s0, -ref_min)
    assert np.array_equal(manifold.direction, e)
    assert manifold.intK_split == pytest.approx((k_T - k_E) / max(k_E, k_T), rel=1e-12)


def test_intK_off_the_cubic_form_raises():
    intK = np.diag([5.0, 5.0, 5.3, 5.3, 5.3])
    intK[0, 2] = intK[2, 0] = 1e-3
    with pytest.raises(ValueError, match="cubic form"):
        potential.compute_c0_and_NN(S2, intK)
    with pytest.raises(ValueError, match="cubic form"):
        potential.compute_c0_and_NN(S2, np.diag([5.0, 5.1, 5.3, 5.3, 5.3]))


SPLIT_BULKS = [potential.make_bulk_potential(S2, np.diag([k_E, k_E, k_T, k_T, k_T]))
               for k_E, k_T in [(LATTICE_K_E, LATTICE_K_T), (5.0, 5.3)]]


@settings(max_examples=40, deadline=None)
@given(bulk=st.sampled_from(SPLIT_BULKS), seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 30.0))
def test_split_intK_bulk_potential_is_nonnegative(bulk, seed, t):
    # inf psi_b = 0 on the moment set also when a lattice splits intK; the
    # points Lambda^{-1}(b) are admissible, and so is the [111] vacuum
    u = potential.lambda_inverse(S2, t * _unit(S2, seed))
    assert potential.psi_b(bulk, u[None])[0] >= -1e-12
    assert potential.psi_b(bulk, (bulk.manifold.s0 * RAY_111)[None])[0] >= -1e-12


def test_weak_coupling_is_isotropic():
    # below the ordering transition the minimum collapses to the origin and
    # keeps a positive radial curvature there
    bulk = potential.make_bulk_potential(S1, 0.5 * np.eye(2))
    assert bulk.manifold.s0 == pytest.approx(0.0, abs=1e-6)
    assert not bulk.manifold.degenerate
    assert bulk.manifold.transverse_curvature > 0


def test_hessian_diagnostics_consistency():
    bulk = potential.make_bulk_potential(S1, 5.0 * np.eye(2))
    diag = potential.hessian_diagnostics(S1)
    assert diag.c_est > 0
    assert diag.inverse_identity_error < 1e-10
    assert not bulk.manifold.degenerate


def test_strong_coupling_raises_instead_of_a_wrong_vacuum():
    # at kappa = 60 the slope t - kappa A(t) is still negative at the dual cap:
    # the minimiser lies beyond it, and returning s0 = 0 would leave psi_b
    # negative along the ray
    with pytest.raises(OutsideMomentDomain, match="beyond the dual cap"):
        potential.make_bulk_potential(S1, 60.0 * np.eye(2))


@pytest.mark.parametrize("model, intK", [(S1, 0.5 * np.eye(2)), (S1, 5.0 * np.eye(2)),
                                         (S1, 45.0 * np.eye(2)), (S2, 8.0 * np.eye(5)),
                                         (S2, np.diag([5.0, 5.0, 5.3, 5.3, 5.3]))])
def test_transverse_curvature_matches_the_inverse_covariance(model, intK):
    # 1/(e.C e) - kappa on the dual ray equals e.(C^{-1} - intK) e at Lambda(s0 e)
    bulk = potential.make_bulk_potential(model, intK)
    e, s0 = bulk.manifold.direction, bulk.manifold.s0
    hess = np.linalg.inv(potential.covariance(model, potential.dual_map(model, s0 * e)))
    ref = float(e @ (hess - intK) @ e)
    assert bulk.manifold.transverse_curvature == pytest.approx(ref, rel=1e-10)


def test_bulk_potential_solves_the_radial_scan_in_one_batch(monkeypatch):
    calls = []
    dual_map = potential.dual_map

    def counted(*args, **kwargs):
        calls.append(1)
        return dual_map(*args, **kwargs)

    monkeypatch.setattr(potential, "dual_map", counted)
    for model in (S1, S2):
        potential.make_bulk_potential(model, 5.0 * np.eye(model.m))
    assert not calls


E1 = np.array([0.6, 0.8])
E2 = np.array([0.2, -0.4, 0.4, 0.8, 0.0])  # unit; |u| = 0.8 along it is outside the s2 set
UNIAXIAL = potential.representative_direction(S2)


@pytest.mark.parametrize(
    "model, u",
    [
        (S1, np.stack([0.1 * E1, 0.97 * E1, 0.5 * E1[::-1]])),
        (S2, np.stack([0.1 * E2, 0.9 * UNIAXIAL, 0.45 * E2[::-1], -0.45 * UNIAXIAL])),
    ],
    ids=["s1", "s2"],
)
def test_batched_dual_map_matches_one_cell_solves(model, u):
    # an easy cell converges many Newton steps before a near-cap one; it
    # must stop where a one-cell solve stops
    batch = potential.dual_map(model, u)
    for cell, b in zip(u, batch):
        assert np.max(np.abs(b - potential.dual_map(model, cell))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.0, 0.8),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_duality_gap_property(r, angle):
    # psi_s(u) = b.u - lnZ(b) at the optimal b: Fenchel equality on the ray
    u = np.array([[r * np.cos(angle), r * np.sin(angle)]])
    b = potential.dual_map(S1, u)
    gap = float(b[0] @ u[0]) - potential.log_partition(S1, b)[0]
    assert potential.psi_s(S1, u)[0] == pytest.approx(gap, abs=1e-9)


def test_q_tensor_coords_unit_norm():
    rng = np.random.default_rng(8)
    p = rng.standard_normal((40, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    y = potential.q_tensor_coords(p)
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)
    back = potential.coords_to_matrix(y)
    assert np.allclose(np.trace(back, axis1=-2, axis2=-1), 0.0, atol=1e-12)


def _s1_duals():
    # |b| from exactly 0 up to 45 in turning directions, with small radii near 0
    s = np.concatenate([[0.0, 1e-12, 1e-9, 1e-7, 1e-4], np.linspace(1e-2, 45.0, 120)])
    angle = np.linspace(0.0, 7.0, s.size)
    return s[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)


@pytest.mark.parametrize("shape", ["batched", "0-d", "(1, 2)"])
def test_s1_closed_form_matches_the_quadrature(shape):
    b = _s1_duals()
    cases = {"batched": [b], "0-d": list(b), "(1, 2)": [cell[None] for cell in b]}[shape]
    for bb in cases:
        lnz = potential.log_partition(S1, bb)
        assert np.shape(lnz) == np.shape(potential.log_partition(S1_NODES, bb))
        assert np.allclose(lnz, potential.log_partition(S1_NODES, bb), rtol=1e-14, atol=1e-14)
        u = potential.lambda_inverse(S1, bb)
        assert u.shape == bb.shape
        assert np.allclose(u, potential.lambda_inverse(S1_NODES, bb), rtol=0.0, atol=1e-14)
        assert potential.covariance(S1, bb).shape == bb.shape + (2,)
        # Hess psi_s at u, by each path's own dual map; near |b| = 45 the
        # quadrature dual is up to about 5e-11 relative off, and 1/A' is about 4000
        hess = np.linalg.inv(potential.covariance(S1, potential.dual_map(S1, u)))
        ref = np.linalg.inv(potential.covariance(S1_NODES, potential.dual_map(S1_NODES, u)))
        assert np.allclose(hess, ref, rtol=1e-8, atol=1e-12)
        back = potential.dual_map(S1, u)
        assert back.shape == bb.shape
        for model in (S1, S1_NODES):
            assert np.max(np.abs(potential.lambda_inverse(model, back) - u)) < 1e-10


def test_s1_closed_form_at_the_origin():
    zero = np.zeros(2)
    assert potential.log_partition(S1, zero) == 0.0
    assert np.array_equal(potential.lambda_inverse(S1, zero), zero)
    assert np.array_equal(potential.dual_map(S1, zero), zero)
    assert np.array_equal(potential.dual_map(S1, np.zeros((3, 1, 2))), np.zeros((3, 1, 2)))


def test_s1_bessel_fits_match_scipy_special():
    # the fitted A = I1/I0, A/s and log I0 on a dense grid; log I0 below s = 2 from
    # its power series, where log(i0e(s)) + s cancels
    from scipy.special import i0e, i1e

    s = np.geomspace(1e-6, 1e5, 20001)
    a, q = potential._bessel_ratio(s)
    ref = i1e(s) / i0e(s)
    assert np.max(np.abs(a / ref - 1.0)) <= 1e-14
    assert np.max(np.abs(q * s / ref - 1.0)) <= 1e-14
    small = s < 2.0
    x = (s[small] / 2.0) ** 2
    ref = np.log(i0e(s)) + s
    ref[small] = np.log1p(sum(x**k / math.factorial(k) ** 2 for k in range(1, 30)))
    log_i0 = potential.log_partition(S1, np.stack([s, np.zeros_like(s)], axis=-1))
    assert np.max(np.abs(log_i0 / ref - 1.0)) <= 1e-14


def test_s1_dual_map_matches_brentq(monkeypatch):
    # Halley's iteration stops on the residual |A(s) - r| <= DUAL_TOL, so it lands
    # within DUAL_TOL / A' of the root, over the whole of (0, S1_R_CAP]
    from scipy.special import i0e, i1e

    r = np.concatenate([np.geomspace(1e-9, 0.5, 60), np.linspace(0.5, potential.S1_R_CAP, 300)])
    b = potential.dual_map(S1, np.stack([r, np.zeros_like(r)], axis=-1))
    root = np.array([brentq(lambda s: i1e(s) / i0e(s) - ri, 0.0, potential.B_CAP + 1.0,
                            xtol=1e-300, rtol=1e-15) for ri in r])
    a = i1e(root) / i0e(root)
    slope = 1.0 - a / root - a * a
    assert np.all(np.abs(b[:, 0] - root) <= potential.DUAL_TOL / slope + 4e-15 * root)
    assert np.all(b[:, 1] == 0.0)
    # near the vacuum radius, two steps and the check that ends the loop
    calls = []
    ratio = potential._bessel_ratio
    monkeypatch.setattr(potential, "_bessel_ratio", lambda s: calls.append(s) or ratio(s))
    potential.dual_map(S1, np.array([0.83, 0.0]))
    assert len(calls) == 3


def _unit(model, seed):
    v = np.random.default_rng(seed).standard_normal(model.m)
    return v / np.linalg.norm(v)


@settings(max_examples=20, deadline=None)
@given(model=st.sampled_from([S1, S2]), seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.8 * potential.B_CAP, 0.999 * potential.B_CAP))
def test_dual_map_round_trips_near_the_cap(model, seed, t):
    u = potential.lambda_inverse(model, t * _unit(model, seed))
    b = potential.dual_map(model, u)
    assert np.max(np.abs(potential.lambda_inverse(model, b) - u)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(model=st.sampled_from([S1, S2]), seed=st.integers(0, 2**32 - 1),
       t=st.floats(1.01 * potential.B_CAP, 1e6))
def test_dual_map_raises_past_the_image_of_the_cap(model, seed, t):
    u = potential.lambda_inverse(model, t * _unit(model, seed))
    with pytest.raises(OutsideMomentDomain):
        potential.dual_map(model, u)


@settings(max_examples=20, deadline=None)
@given(r=st.floats(potential.S1_R_CAP, 1.0, exclude_min=True, exclude_max=True),
       angle=st.floats(0.0, 2 * np.pi))
def test_s1_dual_map_raises_between_the_cap_and_the_boundary(r, angle):
    u = np.array([r * np.cos(angle), r * np.sin(angle)])
    # the rotation may round r down; dual_map takes the norm over the last
    # axis, which can differ from the flat norm in the last bit
    assume(np.linalg.norm(u, axis=-1) > potential.S1_R_CAP)
    with pytest.raises(OutsideMomentDomain):
        potential.dual_map(S1, u)


@settings(max_examples=10, deadline=None)
@given(model=st.sampled_from([S1, S2]), seed=st.integers(0, 2**32 - 1),
       cell=st.integers(0, 5), axis=st.integers(0, 1))
def test_dual_map_raises_on_a_nan_cell(model, seed, cell, axis):
    rng = np.random.default_rng(seed)
    u = potential.lambda_inverse(model, rng.uniform(-2.0, 2.0, (6, model.m)))
    u[cell, axis] = np.nan
    with pytest.raises(OutsideMomentDomain):
        potential.dual_map(model, u)


def _rotated(y, R):
    """Coordinates of R Y R^T, where Y = sum_a y_a E_a."""
    E = potential.sym0_basis()
    return np.einsum("aij,ik,...kl,jl->...a", E, R, np.einsum("...b,bkl->...kl", y, E), R)


def _rotation(seed):
    """A random rotation of R^3 (det +1)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q * np.sign(np.linalg.det(q))


S2_BULK = potential.make_bulk_potential(S2, 8.0 * np.eye(5))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 0.999 * potential.B_CAP))
def test_s2_is_frame_indifferent(seed, t):
    # psi_s is invariant under u -> R u R^T: lnZ and psi_b (intK = kappa Id)
    # are invariant, Lambda^{-1} and Lambda equivariant, out to the cap; u and
    # b are compared relative to sigma_max = 1 and max(|b|, 1)
    R = _rotation(seed)
    b = t * _unit(S2, seed)
    rb = _rotated(b, R)
    assert potential.log_partition(S2, rb) == pytest.approx(potential.log_partition(S2, b), rel=1e-12)
    u = potential.lambda_inverse(S2, b)
    assert np.max(np.abs(potential.lambda_inverse(S2, rb) - _rotated(u, R))) <= 1e-12
    back = potential.dual_map(S2, u)
    rback = potential.dual_map(S2, _rotated(u, R))
    assert np.max(np.abs(rback - _rotated(back, R))) <= 1e-12 * max(np.linalg.norm(back), 1.0)
    # psi_b vanishes on the vacuum orbit: relative to max(|psi_b|, 1)
    psi = potential.psi_b(S2_BULK, u[None])[0]
    assert potential.psi_b(S2_BULK, _rotated(u, R)[None])[0] == pytest.approx(psi, rel=1e-12, abs=1e-12)


def _chamber_duals():
    # diagonal duals b = d_0 E_0 + d_1 E_1 with eigenvalues ascending along x,
    # y, z (the order eigh returns), |b| from 0 to 45: the fold sums the very
    # nodes the rule does
    s = np.concatenate([[0.0, 1e-9], np.linspace(0.1, 45.0, 60)])
    angle = np.deg2rad(np.linspace(210.0, 270.0, s.size))
    b = np.zeros((s.size, 5))
    b[:, 0], b[:, 1] = s * np.cos(angle), s * np.sin(angle)
    return b


def _generic_duals(seed, n=60, b_max=8.0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, 5))
    return b * (b_max * rng.random((n, 1)) / np.linalg.norm(b, axis=1, keepdims=True))


@pytest.mark.parametrize("duals, tol", [(_chamber_duals(), 1e-14), (_generic_duals(9), 1e-11)],
                         ids=["diagonal", "generic"])
@pytest.mark.parametrize("shape", ["batched", "0-d", "(1, 5)"])
def test_s2_fold_matches_the_node_sums(duals, tol, shape):
    cases = {"batched": [duals], "0-d": list(duals), "(1, 5)": [cell[None] for cell in duals]}[shape]
    for b in cases:
        lnz = potential.log_partition(S2, b)
        assert np.shape(lnz) == np.shape(potential.log_partition(S2_NODES, b))
        assert np.allclose(lnz, potential.log_partition(S2_NODES, b), rtol=tol, atol=tol)
        u = potential.lambda_inverse(S2, b)
        assert u.shape == b.shape
        assert np.allclose(u, potential.lambda_inverse(S2_NODES, b), rtol=0.0, atol=tol)
        assert potential.covariance(S2, b).shape == b.shape + (5,)


def test_s2_dual_map_round_trips_under_both_paths():
    u = potential.lambda_inverse(S2, _generic_duals(10))
    for model in (S2, S2_NODES):
        back = potential.dual_map(model, u)
        assert back.shape == u.shape
        for reader in (S2, S2_NODES):
            assert np.max(np.abs(potential.lambda_inverse(reader, back) - u)) < 1e-10


def _mean_field_cases():
    # s1: 0, one |b| in each of the nine Bessel intervals and one past 32; s2: a
    # uniaxial, a biaxial and a NaN cell; the s2 nodes without their fold
    s = np.array([0.0, 0.5, 1.5, 2.5, 3.5, 5.0, 7.0, 12.0, 24.0, 40.0])
    s1 = s[:, None] * np.stack([np.cos(3.0 * s), np.sin(3.0 * s)], axis=-1)
    s2 = np.stack([3.0 * potential.representative_direction(S2), _generic_duals(4, n=1)[0],
                   np.full(5, np.nan), 6.0 * potential.q_tensor_coords(np.ones(3) / np.sqrt(3.0))])
    return [(S1, s1), (S2, s2), (S2_NODES, s2)]


@pytest.mark.parametrize("model, b", _mean_field_cases(), ids=["s1", "s2", "s2-nodes"])
def test_mean_field_is_the_two_single_output_maps(model, b):
    for bb in (b, b.reshape(2, -1, model.m), *b):
        u, lnz = potential.mean_field(model, bb)
        assert u.shape == bb.shape and np.shape(lnz) == bb.shape[:-1]
        np.testing.assert_array_equal(u, potential.lambda_inverse(model, bb))
        np.testing.assert_array_equal(lnz, potential.log_partition(model, bb))
    if model is S2:
        # the NaN cell gives NaN and leaves the other cells finite
        u, lnz = potential.mean_field(S2, b)
        assert np.isnan(u[2]).all() and np.isfinite(np.delete(u, 2, axis=0)).all()
        assert np.isnan(lnz[2]) and np.isfinite(np.delete(lnz, 2)).all()


@pytest.mark.parametrize("n_theta, n_phi", [(23, 48), (24, 46)])
def test_s2_model_rejects_a_rule_the_fold_cannot_take(n_theta, n_phi):
    # odd n_theta puts nodes on z = 0, n_phi = 2 mod 4 puts nodes on x = 0
    with pytest.raises(ValueError):
        potential.make_s2_model(n_theta, n_phi)
