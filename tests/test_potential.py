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
    # and the covariance is the symmetric Jacobian of lambda_inverse
    rng = np.random.default_rng(1)
    d = 1e-6
    for model in (S1, S2):
        b = rng.uniform(-2, 2, (5, model.m))
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

        def moment(logf):
            f = np.exp(logf)
            return model.sigma.T @ (model.weights * f) - u

        def mass(logf):
            return float(np.sum(model.weights * np.exp(logf)) - 1.0)

        res = scipy_minimize(
            objective,
            np.zeros(n),
            constraints=[
                {"type": "eq", "fun": moment},
                {"type": "eq", "fun": mass},
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
        f = potential.minimal_distribution(model, u)
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


@pytest.mark.parametrize("model, kappa", [(S1, 2.1), (S1, 5.0), (S1, 14.0), (S2, 5.0), (S2, 20.0)])
def test_vacuum_radius_matches_brentq(model, kappa):
    # the radial polish is a numpy root finder; brentq is the oracle
    c0, s0, _ = potential.compute_c0_and_NN(model, kappa * np.eye(model.m))
    e = potential.representative_direction(model)

    def d(s):
        return potential._radial_bulk_derivative(model, e, kappa, s)

    ref = brentq(d, s0 - 1e-3, s0 + 1e-3, xtol=1e-12)
    ref_c0 = 0.5 * kappa * ref**2 - float(potential.psi_s(model, ref * e))
    assert s0 == pytest.approx(ref, rel=0.0, abs=1e-12)
    assert c0 == pytest.approx(ref_c0, rel=1e-12)


def test_split_intK_orbit_is_the_one_ray_along_e(monkeypatch):
    # a lattice splits intK into E and T2 blocks; the orbit stays the single
    # radial ray along e, with kappa = e.intK e, and draws no random numbers
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: pytest.fail("compute_c0_and_NN drew random numbers"))
    intK = np.diag([5.0, 5.0, 5.3, 5.3, 5.3])
    e = potential.representative_direction(S2)
    c0, s0, manifold = potential.compute_c0_and_NN(S2, intK)
    ref_s0, ref_min = potential._radial_ray_minimum(S2, e, float(e @ intK @ e))
    assert (s0, c0) == (ref_s0, -ref_min)
    assert np.array_equal(manifold.direction, e)


def test_weak_coupling_is_isotropic():
    # below the ordering transition the minimum collapses to the origin and
    # keeps a positive radial curvature there
    bulk = potential.make_bulk_potential(S1, 0.5 * np.eye(2))
    assert bulk.manifold.s0 == pytest.approx(0.0, abs=1e-6)
    assert not bulk.manifold.degenerate
    assert bulk.manifold.transverse_curvature > 0


def test_hessian_diagnostics_consistency():
    bulk = potential.make_bulk_potential(S1, 5.0 * np.eye(2))
    diag = potential.hessian_diagnostics(S1, bulk)
    assert diag.c_est > 0
    assert diag.inverse_identity_error < 1e-10
    potential.check_nondegenerate(bulk)


def test_strong_coupling_raises_instead_of_a_wrong_vacuum():
    # the minimiser (s near 0.975) lies beyond the radius the dual solve
    # resolves; returning s0 = 0 would leave psi_b negative along the ray
    with pytest.raises(OutsideMomentDomain, match="beyond the resolvable radius"):
        potential.make_bulk_potential(S1, 20.0 * np.eye(2))


def test_bulk_potential_solves_the_radial_scan_in_one_batch(monkeypatch):
    calls = []
    dual_map = potential.dual_map

    def counted(*args, **kwargs):
        calls.append(1)
        return dual_map(*args, **kwargs)

    monkeypatch.setattr(potential, "dual_map", counted)
    potential.make_bulk_potential(S1, 5.0 * np.eye(2))
    assert len(calls) <= 15


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


def test_warm_start_matches_cold_start():
    rng = np.random.default_rng(7)
    u = 0.5 * rng.standard_normal((30, 2))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    u = np.where(norms > 0.8, u * 0.8 / norms, u)
    cold = potential.dual_map(S1, u)
    warm = potential.dual_map(S1, u, b0=cold + 0.1 * rng.standard_normal(cold.shape))
    assert np.allclose(cold, warm, atol=1e-9)


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
        cov = potential.covariance(S1, bb)
        assert cov.shape == bb.shape + (2,)
        assert np.allclose(cov, potential.covariance(S1_NODES, bb), rtol=0.0, atol=1e-14)
        # psi_s_hessian runs each path's own dual map; near |b| = 45 the
        # quadrature dual is up to about 5e-11 relative off, and 1/A' is about 4000
        hess = potential.psi_s_hessian(S1, u)
        ref = potential.psi_s_hessian(S1_NODES, u)
        assert np.allclose(hess, ref, rtol=1e-8, atol=1e-12)
        back = potential.dual_map(S1, u)
        assert back.shape == bb.shape
        for model in (S1, S1_NODES):
            assert np.max(np.abs(potential.lambda_inverse(model, back) - u)) < 1e-10


def test_s1_closed_form_at_the_origin():
    zero = np.zeros(2)
    assert potential.log_partition(S1, zero) == 0.0
    assert np.array_equal(potential.lambda_inverse(S1, zero), zero)
    assert np.array_equal(potential.covariance(S1, zero), 0.5 * np.eye(2))
    assert np.array_equal(potential.dual_map(S1, zero), zero)
    assert np.array_equal(potential.dual_map(S1, np.zeros((3, 1, 2))), np.zeros((3, 1, 2)))


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
    assume(np.linalg.norm(u) > potential.S1_R_CAP)  # the rotation may round r down
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
