import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nllc import kernel
from nllc.errors import QuadratureUnderresolved, ResolutionMismatch


ANNULUS = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.5, "rho2": 1.0})
GAUSS = kernel.kernel_preset("gaussian", 2, {"strength": 4.0, "width": 0.3, "cut": 2.5})
NEMATIC = kernel.kernel_preset(
    "gaussian-nematic", 5, {"strength": 3.0, "width": 0.3, "cut": 2.5, "f2": 0.5, "f3": 0.25}
)
INV6 = kernel.kernel_preset("inverse6", 2, {"amplitude": 2.0, "r_on": 0.4, "r_full": 0.8})


def closed_form_annulus_moment(k, r1, r2, power):
    # int k r^power over the annulus = k * 4 pi (r2^(p+3) - r1^(p+3)) / (p+3)
    p = power + 3
    return k * 4.0 * np.pi * (r2**p - r1**p) / p


def test_annulus_moments_match_closed_form():
    moments = kernel.compute_moments(ANNULUS)
    intg = closed_form_annulus_moment(1.3, 0.5, 1.0, 0)
    m2 = closed_form_annulus_moment(1.3, 0.5, 1.0, 2)
    assert moments.intG == pytest.approx(intg, rel=1e-8)
    assert moments.m2 == pytest.approx(m2, rel=1e-8)
    assert np.allclose(moments.intK, intg * np.eye(2), rtol=1e-8)


def test_gaussian_strength_normalises_intg():
    moments = kernel.compute_moments(GAUSS)
    # the hard cut at 2.5 widths removes the exactly computable Gaussian tail
    from scipy.integrate import quad

    w, cut, strength = 0.3, 2.5, 4.0
    amp = strength / (np.pi**1.5 * w**3)
    exact = quad(lambda r: amp * np.exp(-((r / w) ** 2)) * 4 * np.pi * r**2, 0, cut * w)[0]
    assert moments.intG == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("f2, f3, crossing", [(0.3, -0.2, np.sqrt(1.5)), (-0.3, 0.2, np.sqrt(0.375))],
                         ids=["f2>0>f3", "f2<0<f3"])
def test_split_nematic_moments_converge(f2, f3, crossing):
    # g = lambda_min(K) changes eigenvalue branch at the crossing radius; without a
    # breakpoint there the g moments raised QuadratureUnderresolved
    from scipy.integrate import quad

    spec = kernel.kernel_preset("gaussian-nematic", 5, {"strength": 8.0, "width": 0.75, "cut": 2.5,
                                                        "f2": f2, "f3": f3})
    moments = kernel.compute_moments(spec)
    assert kernel._branch_crossing(spec) == [pytest.approx(crossing, rel=1e-15)]
    # K is diagonal on the ray; its smallest entry changes place at the crossing
    branches = np.diagonal(kernel.evaluate_kernel(spec, kernel._ray(crossing * np.array([0.99, 1.01]))),
                           axis1=1, axis2=2)
    assert np.argmin(branches[0]) != np.argmin(branches[1])

    def g_moment(p):
        return quad(lambda r: 4 * np.pi * r ** (2 + p) * kernel.min_eigen_g(spec, kernel._ray(r)),
                    0, 2.5 * 0.75, points=[crossing], epsabs=0, epsrel=1e-12, limit=200)[0]

    assert moments.intG == pytest.approx(g_moment(0), rel=1e-9)
    assert moments.m2 == pytest.approx(g_moment(2), rel=1e-9)


@pytest.mark.parametrize("name, key", [("gaussian", "f2"), ("zero", "k"), ("annulus", "width"),
                                       ("inverse6", "width")])
def test_kernel_preset_rejects_a_key_its_preset_does_not_read(name, key):
    # gaussian and zero dropped such a key; annulus and inverse6 raised a raw TypeError
    assert key not in kernel.PRESETS[name]
    with pytest.raises(ValueError, match=f"{key}: not a parameter of the {name} preset"):
        kernel.kernel_preset(name, 2, {key: 0.5})


def test_kernel_preset_defaults_come_from_its_table():
    for name, defaults in kernel.PRESETS.items():
        spec = kernel.kernel_preset(name, 5 if name == "gaussian-nematic" else 2)
        assert kernel.kernel_preset(name, spec.m, defaults) == spec, name
    assert kernel.kernel_preset("inverse6", 2).q == 2.5


@pytest.mark.parametrize("name, params", [
    ("annulus", {"q": np.nan}), ("annulus", {"q": np.inf}), ("annulus", {"q": 1.5}),
    # numbered on from 6, so that each case keeps the name it has had in the suite
    *(pytest.param(name, params, id=f"{name}-params{i}") for i, (name, params) in enumerate([
        ("gaussian", {"width": 0.0}), ("gaussian", {"width": -0.3}),
        ("gaussian-nematic", {"width": np.inf}),
        ("gaussian", {"cut": 0.0}), ("gaussian", {"cut": -2.5}),
        ("gaussian-nematic", {"cut": np.nan}),
        ("inverse6", {"r_on": 1.2, "r_full": 1.0}), ("inverse6", {"r_on": 1.0, "r_full": 1.0}),
        ("inverse6", {"r_full": np.inf}),
    ], start=6)),
])
def test_kernel_values_that_leave_the_construction_undefined_raise(name, params):
    # a NaN q passed q < 2 and width 0 raised ZeroDivisionError;
    # a Gaussian cut of 0 passed kernel-report and then asked a solve for h below a
    # negative bound; inverse6 with r_on > r_full is 0 at every r, yet its
    # closed-form tail gave intK = 0.0654 Id, and r_on = r_full made it a step
    with pytest.raises(ValueError):
        kernel.kernel_preset(name, 5, params)


def test_nematic_preset_takes_the_callers_m():
    # it was built at m = 5 whatever m was asked for, and an s1 solve then failed
    # in a raw matmul
    with pytest.raises(ValueError, match="m = 5"):
        kernel.kernel_preset("gaussian-nematic", 2)


def test_failing_assumptions_are_reported_not_raised():
    # a negative amplitude or a reversed annulus is kernel-report's to flag
    for name, params in (("annulus", {"rho1": 1.0, "rho2": 0.5}), ("gaussian", {"strength": -1.0}),
                         ("inverse6", {"amplitude": -2.0})):
        assert not kernel.check_assumptions(kernel.kernel_preset(name, 2, params)).all_pass()


def test_kernel_evenness():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((64, 3))
    for spec in (ANNULUS, GAUSS, NEMATIC, INV6):
        K_plus = kernel.evaluate_kernel(spec, z)
        K_minus = kernel.evaluate_kernel(spec, -z)
        assert np.allclose(K_plus, K_minus, atol=1e-14)
        assert np.allclose(K_plus, np.swapaxes(K_plus, -1, -2), atol=1e-14)


def test_min_eigen_nonnegative_on_annulus():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((200, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    for spec in (GAUSS, NEMATIC):
        r1, r2 = spec.annulus
        r = rng.uniform(r1 + 1e-6, r2 - 1e-6, 200)
        g = kernel.min_eigen_g(spec, d * r[:, None])
        assert np.all(g > 0)


def test_pointwise_checks_bound_the_seeded_sampler():
    # the deterministic check points against the 512 seeded points in the
    # support ball that the checks drew before: the domination constant bounds
    # lambda_max / g there, and the smallest g at the check points bounds g
    rng = np.random.default_rng(12345)
    z = rng.standard_normal((512, 3))
    z *= NEMATIC.support_radius * rng.random((512, 1)) ** (1 / 3) / np.linalg.norm(
        z, axis=1, keepdims=True)
    lam = np.linalg.eigvalsh(kernel.evaluate_kernel(NEMATIC, z))
    assert np.all(lam[:, 0] > 0)
    report = kernel.check_assumptions(NEMATIC)
    assert report.lambda_max_constant >= (lam[:, -1] / lam[:, 0]).max()
    assert kernel.min_eigen_g(NEMATIC, kernel._check_points(NEMATIC)).min() <= lam[:, 0].min()


def test_assumptions_pass_on_presets():
    for spec in (ANNULUS, GAUSS, NEMATIC, INV6):
        report = kernel.check_assumptions(spec)
        assert all(report.passed.values()), report.passed


class FatTail:
    support_radius = np.inf

    def __call__(self, r):
        return 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2)

    def breakpoints(self):
        return [1.0, 4.0]

    def tail_radial_moment(self, power, r):
        return None  # diverges for power >= 0


FAT_TAIL = kernel.KernelSpec("scalar", 2, FatTail(), q=6.0, annulus=(0.25, 0.75))


def test_assumptions_fail_on_fat_tail():
    # the profile gives no closed-form tail: compute_moments raises, and the
    # report fails the moments and says why
    report = kernel.check_assumptions(FAT_TAIL)
    assert not report.passed["K4_second_moment"]
    assert "tail_radial_moment" in report.notes


def test_elastic_tensor_raises_without_a_closed_form_tail():
    # int f r^4 dr diverges; dropping the missing tail gave a finite L (19.54 Id)
    with pytest.raises(QuadratureUnderresolved, match="tail_radial_moment"):
        kernel.elastic_tensor(FAT_TAIL)


def test_elastic_tensor_annulus_closed_form():
    tensor = kernel.elastic_tensor(ANNULUS)
    lam = tensor.isotropic_constant()
    m2 = closed_form_annulus_moment(1.3, 0.5, 1.0, 2)
    assert lam == pytest.approx(m2 / 12.0, rel=1e-8)


def test_elastic_tensor_matches_lattice_bruteforce():
    # dense Riemann sum of (1/4) K(z) z_i z_j over the sampled stencil
    eps, h = 1.0, 1.0 / 24
    sampled = kernel.sample_on_lattice(NEMATIC, eps, h)
    S = sampled.radius_cells
    idx = np.arange(-S, S + 1) * h
    Z = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1)
    brute = 0.25 * np.einsum(
        "xyzi,xyzj,xyzab->ijab", Z, Z, sampled.values
    ) * h**3
    tensor = kernel.elastic_tensor(NEMATIC)
    assert np.allclose(brute, tensor.L, rtol=0, atol=5e-3 * np.abs(tensor.L).max())


def test_elastic_contract_matches_dense_eigen_oracle():
    # the Rayleigh range that ellipticity_bounds reports is the dense spectrum's,
    # and it brackets seeded Rayleigh quotients
    tensor = kernel.elastic_tensor(NEMATIC)
    m = tensor.L.shape[2]
    flat = tensor.L.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)
    flat = 0.5 * (flat + flat.T)
    w = np.linalg.eigvalsh(flat)
    bounds = kernel.ellipticity_bounds(NEMATIC, tensor, kernel.check_assumptions(NEMATIC))
    assert bounds.rayleigh_min == pytest.approx(w[0], rel=1e-12)
    assert bounds.rayleigh_max == pytest.approx(w[-1], rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(100):
        xi = rng.standard_normal((m, 3))
        xi /= np.linalg.norm(xi)
        val = float(np.einsum("ijab,ai,bj->", tensor.L, xi, xi))  # L xi . xi
        assert w[0] - 1e-12 <= val <= w[-1] + 1e-12
        assert bounds.rayleigh_min - 1e-12 <= val <= bounds.rayleigh_max + 1e-12


def test_ellipticity_bounds_and_flag():
    tensor = kernel.elastic_tensor(ANNULUS)
    bounds = kernel.ellipticity_bounds(ANNULUS, tensor, kernel.check_assumptions(ANNULUS))
    # the scalar annulus sits exactly at the lower bound, so allow round-off
    tol = 1e-12 * bounds.upper
    assert 0 < bounds.lower <= bounds.rayleigh_min + tol
    assert bounds.rayleigh_min <= bounds.rayleigh_max <= bounds.upper + tol
    # the two annulus lower-bound formulas disagree for this geometry
    k, r1, r2 = 1.3, 0.5, 1.0
    assert bounds.lower == pytest.approx(k * np.pi * (r2**5 - r1**5) / 15.0, rel=1e-8)
    assert bounds.lower_quoted == pytest.approx(k * np.pi * (r2**3 - r1**3) / 9.0, rel=1e-8)
    assert bounds.jacobian_discrepancy


def test_sample_on_lattice_resolution_guard():
    with pytest.raises(ResolutionMismatch):
        kernel.sample_on_lattice(ANNULUS, eps=0.1, h=0.05)


def test_unbounded_stencil_too_large_raises_before_allocating(monkeypatch):
    # INV6's tail-moment radius at eps 0.5 spans about 4e10 cells per axis

    def no_stencil(*args):
        raise AssertionError("stencil allocated")

    monkeypatch.setattr(kernel, "stencil_offsets", no_stencil)
    with pytest.raises(ResolutionMismatch, match="stencil of"):
        kernel.sample_on_lattice(INV6, eps=0.5, h=0.1)


def product_rule(spec, r_max):
    """Nodes z and weights of a fixed 3-D product rule over the ball of radius
    r_max: 96 Gauss-Legendre points on each segment between the profiles'
    breakpoints times sphere_rule(18, 36); the reference for the one-ray rule."""
    pts = sorted({0.0, r_max} | {b for p in spec.profiles for b in p.breakpoints() if 0 < b < r_max})
    a, b = np.array(pts[:-1]), np.array(pts[1:])
    x, w = np.polynomial.legendre.leggauss(96)
    r = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x).ravel()
    wr = (0.5 * (b - a)[:, None] * w).ravel()
    s, ws = kernel.sphere_rule(18, 36)
    z = (r[:, None, None] * s[None]).reshape(-1, 3)
    return z, ((wr * r**2)[:, None] * (ws * (np.pi / 18))[None]).ravel()


def test_inverse6_grad_moment_includes_its_tail():
    # 3-D quadrature of |grad K| |z|^3 out to r = 400, plus the closed-form
    # remainder 4 pi sqrt(m) int_400^inf 6 A r^-2 dr of the scalar profile
    r_far = 400.0
    z, w = product_rule(INV6, r_far)
    near = w @ (kernel._grad_norm(INV6, z) * np.linalg.norm(z, axis=-1) ** 3)
    far = 24.0 * np.pi * 2.0 * np.sqrt(2.0) / r_far
    assert kernel.compute_moments(INV6).m3grad == pytest.approx(near + far, rel=1e-8)


def test_sampled_kernel_truncation_and_moments():
    sampled = kernel.sample_on_lattice(GAUSS, eps=0.3, h=1.0 / 24)
    assert sampled.trunc_error == 0.0  # compact support
    moments = kernel.compute_moments(GAUSS)
    assert np.allclose(sampled.intK_disc, moments.intK, rtol=2e-2)
    assert np.all(sampled.g_disc() >= 0)


def test_inverse6_tail_truncation_error_decreases():
    # the q = 2.5 tail decays too slowly for tolerance-driven radii; cap the
    # stencil and check the reported tail bound shrinks as the cap grows
    s1 = kernel.sample_on_lattice(INV6, eps=0.3, h=1.0 / 24, r_max=0.9)
    s2 = kernel.sample_on_lattice(INV6, eps=0.3, h=1.0 / 24, r_max=1.5)
    assert s2.r_trunc > s1.r_trunc
    assert 0 < s2.trunc_error < s1.trunc_error


@settings(max_examples=20, deadline=None)
@given(
    k=st.floats(0.1, 5.0),
    r1=st.floats(0.1, 0.6),
    width=st.floats(0.2, 1.0),
    power=st.integers(0, 4),
)
def test_annulus_radial_moment_closed_form_property(k, r1, width, power):
    spec = kernel.kernel_preset("annulus", 2, {"k": k, "rho1": r1, "rho2": r1 + width})
    moments = kernel.compute_moments(spec)
    if power == 2:
        assert moments.m2 == pytest.approx(
            closed_form_annulus_moment(k, r1, r1 + width, 2), rel=1e-7
        )
    assert moments.intG == pytest.approx(
        closed_form_annulus_moment(k, r1, r1 + width, 0), rel=1e-7
    )


def test_quadrature_convergence_levels_agree():
    # the one-ray rule refines until two successive levels agree; a fixed
    # high-level 3-D product rule over directions must match its answer
    for spec in (GAUSS, NEMATIC):
        z, w = product_rule(spec, spec.support_radius)
        K = kernel.evaluate_kernel(spec, z)
        intK = kernel.compute_moments(spec).intK
        assert np.allclose(np.einsum("n,nab->ab", w, K), intK, rtol=1e-9, atol=1e-12 * intK[0, 0])
        L = 0.25 * np.einsum("n,ni,nj,nab->ijab", w, z, z, K)
        tensor = kernel.elastic_tensor(spec).L
        assert np.allclose(L, tensor, rtol=1e-9, atol=1e-12 * np.abs(L).max())


@settings(max_examples=40, deadline=None)
@given(
    d=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
    r=st.floats(0.05, 0.7),
    f2=st.floats(-1.0, 1.0),
    f3=st.floats(-1.0, 1.0),
)
def test_spectrum_trace_and_gradient_norm_depend_on_the_radius_only(d, r, f2, f3):
    # frame indifference, the premise of taking every kernel integral on the ray r e3
    spec = kernel.kernel_preset(
        "gaussian-nematic", 5, {"strength": 3.0, "width": 0.3, "cut": 2.5, "f2": f2, "f3": f3}
    )
    z = np.stack([r * np.asarray(d) / np.linalg.norm(d), [0.0, 0.0, r]])
    K = kernel.evaluate_kernel(spec, z)
    lam = np.linalg.eigvalsh(K)
    tol = 1e-12 * np.abs(lam[1]).max()
    assert np.allclose(lam[0], lam[1], rtol=0, atol=tol)
    assert np.trace(K[0]) == pytest.approx(np.trace(K[1]), rel=0, abs=tol)
    grad = kernel._grad_norm(spec, z)
    assert grad[0] == pytest.approx(grad[1], rel=1e-7)


def test_unconverged_grad_moment_fails_k6(monkeypatch):
    # an m3grad quadrature that never stabilises must not report K6 as passed
    real = kernel._converged_integrals

    def m3grad_unconverged(spec, integrand, r_max, rtol):
        values, ok = real(spec, integrand, r_max, rtol)
        return values, [flag and integrand.__name__ != "g3" for flag in ok]

    monkeypatch.setattr(kernel, "_converged_integrals", m3grad_unconverged)
    assert np.isnan(kernel.compute_moments(ANNULUS).m3grad)
    report = kernel.check_assumptions(ANNULUS)
    assert not report.passed["K6_grad_moment"]
    assert "assumption_K6_grad_moment = FAIL" in report.to_text()
