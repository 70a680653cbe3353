"""Frame-indifferent interaction kernels: construction, checks, moments, sampling.

A kernel is built from up to three radial profiles.  In scalar-isotropic
mode K(z) = f1(|z|) Id_m; in nematic mode (m = 5, traceless-symmetric
coordinates) the bilinear form is

    K(z) Q1 . Q2 = f1(|z|) Q1.Q2 + f2(|z|) Q1 z . Q2 z
                   + f3(|z|) (Q1 z . z)(Q2 z . z).

All moment integrals use an adaptive radial Gauss rule tensorised with a
product spherical rule that is exact on the angular polynomials occurring
here.  They run out to one integration radius, the support radius or an
unbounded kernel's last breakpoint, and add one closed-form tail beyond it,
which raises QuadratureUnderresolved when the profile has none.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import QuadratureUnderresolved, ResolutionMismatch
from .potential import sphere_rule, sym0_basis

_E5 = sym0_basis()
# relative change at which the moment and elastic-tensor quadratures stop refining
MOMENT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# radial profiles


@dataclass(frozen=True)
class AnnulusProfile:
    """Indicator k on (r1, r2): the canonical profile of the annulus assumption."""

    k: float = 1.0
    r1: float = 0.5
    r2: float = 1.0

    support_radius = property(lambda self: self.r2)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where((r > self.r1) & (r < self.r2), self.k, 0.0)

    def breakpoints(self):
        return [self.r1, self.r2]


@dataclass(frozen=True)
class GaussianProfile:
    """amplitude * exp(-(r/width)^2), cut off at cut*width where the tail is negligible."""

    amplitude: float = 1.0
    width: float = 1.0
    cut: float = 6.0

    @property
    def support_radius(self):
        return self.cut * self.width

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(
            r < self.support_radius, self.amplitude * np.exp(-((r / self.width) ** 2)), 0.0
        )

    def breakpoints(self):
        return [self.width, 2 * self.width, self.support_radius]


@dataclass(frozen=True)
class InverseSixthProfile:
    """amplitude * phi(r) / r^6 with a smooth inner cutoff phi; heavy algebraic tail.

    phi rises smoothly from 0 at r_on to 1 at r_full; the q-th tail moment is
    finite for q < 3 and available in closed form beyond r_full.
    """

    amplitude: float = 1.0
    r_on: float = 0.5
    r_full: float = 1.0

    support_radius = property(lambda self: np.inf)

    def _cutoff(self, r):
        t = np.clip((r - self.r_on) / (self.r_full - self.r_on), 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = self.amplitude * self._cutoff(r) / np.maximum(r, 1e-300) ** 6
        return np.where(r <= self.r_on, 0.0, np.nan_to_num(val, posinf=0.0))

    def breakpoints(self):
        # the profile peaks inside (r_on, r_full), where |f'| has a kink that
        # the gradient moment's Gauss rule only resolves when split there:
        # f' = 0 <=> d t^2 - (2d + r_on) t + r_on = 0 with d = r_full - r_on
        d = self.r_full - self.r_on
        t_peak = 2.0 * self.r_on / (2.0 * d + self.r_on + np.hypot(2.0 * d, self.r_on))
        return [self.r_on, self.r_on + d * t_peak, self.r_full, 4.0 * self.r_full]

    def tail_radial_moment(self, power, r):
        # int_r^inf amplitude * s^(power-6) ds, valid once the cutoff is 1
        if r < self.r_full:
            return None
        expo = power - 6
        if expo >= -1:
            return np.inf
        return -self.amplitude * r ** (expo + 1) / (expo + 1)

    def tail_gradient_moment(self, power, r):
        # int_r^inf |f'(s)| s^power ds; beyond r_full |f'(s)| = 6 f(s) / s
        tail = self.tail_radial_moment(power - 1, r)
        return None if tail is None else 6.0 * tail


ZERO_PROFILE = AnnulusProfile(k=0.0, r1=0.0, r2=1.0)


@dataclass(frozen=True)
class KernelSpec:
    """Radial construction of a frame-indifferent interaction kernel."""

    mode: str  # "scalar" or "nematic"
    m: int
    f1: object
    f2: object = None
    f3: object = None
    q: float = 2.0  # tail-moment exponent used for the boundary-layer assumption
    tau: float = 1.0  # boundary-layer thickness constant
    annulus: tuple = (0.5, 1.0)  # candidate (rho1, rho2) for the lower-bound assumption

    def __post_init__(self):
        if self.mode not in ("scalar", "nematic"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        if self.mode == "nematic" and self.m != 5:
            raise ValueError("nematic mode requires m = 5")
        if self.q < 2:
            raise ValueError("tail exponent q must be >= 2")

    @property
    def profiles(self):
        out = [self.f1]
        if self.f2 is not None:
            out.append(self.f2)
        if self.f3 is not None:
            out.append(self.f3)
        return out

    @property
    def support_radius(self):
        return max(p.support_radius for p in self.profiles)


def evaluate_kernel(spec: KernelSpec, z: np.ndarray) -> np.ndarray:
    """K(z) as an (..., m, m) symmetric matrix; even in z by construction."""
    z = np.asarray(z, dtype=float)
    r = np.linalg.norm(z, axis=-1)
    eye = np.eye(spec.m)
    out = spec.f1(r)[..., None, None] * eye
    if spec.mode == "nematic":
        if spec.f2 is not None:
            Ez = np.einsum("aij,...j->...ai", _E5, z)
            out = out + spec.f2(r)[..., None, None] * np.einsum("...ai,...bi->...ab", Ez, Ez)
        if spec.f3 is not None:
            c = np.einsum("aij,...i,...j->...a", _E5, z, z)
            out = out + spec.f3(r)[..., None, None] * (c[..., :, None] * c[..., None, :])
    return out


def min_eigen_g(spec: KernelSpec, z: np.ndarray) -> np.ndarray:
    """g(z): the minimum eigenvalue of K(z)."""
    if spec.mode == "scalar":
        return spec.f1(np.linalg.norm(np.asarray(z, dtype=float), axis=-1))
    return np.linalg.eigvalsh(evaluate_kernel(spec, z))[..., 0]


def max_eigen(spec: KernelSpec, z: np.ndarray) -> np.ndarray:
    if spec.mode == "scalar":
        return spec.f1(np.linalg.norm(np.asarray(z, dtype=float), axis=-1))
    return np.linalg.eigvalsh(evaluate_kernel(spec, z))[..., -1]


# ---------------------------------------------------------------------------
# quadrature


def integrate_radial_angular(
    spec: KernelSpec,
    integrand,
    r_max: float,
    n_radial: int = 32,
    n_theta: int = 12,
):
    """Integrate integrand(z) (arbitrary trailing shape) over the ball of radius r_max.

    The radial rule is n_radial-point Gauss-Legendre on each segment between
    the profiles' breakpoints.  integrand receives nodes of shape (nq, 3) and
    must return (nq, ...).
    """
    pts = sorted({0.0, r_max} | {float(b) for p in spec.profiles for b in p.breakpoints()
                                 if 0.0 < b < r_max})
    a, b = np.array(pts[:-1]), np.array(pts[1:])
    x, w = np.polynomial.legendre.leggauss(n_radial)
    r = (0.5 * (a + b)[:, None] + (0.5 * (b - a))[:, None] * x).ravel()
    wr = ((0.5 * (b - a))[:, None] * w).ravel()
    s, ws = sphere_rule(n_theta, 2 * n_theta)
    z = r[:, None, None] * s[None, :, :]  # (nr, ns, 3)
    w = (wr * r**2)[:, None] * (ws * (np.pi / n_theta))[None, :]
    vals = integrand(z.reshape(-1, 3))
    return np.tensordot(w.reshape(-1), vals, axes=(0, 0))


def _converged_integral(spec, integrand, r_max, rtol):
    """Refine radial/angular resolution until the value stabilises to rtol.

    Returns (value, converged flag).
    """
    levels = [(24, 10), (48, 14), (96, 18), (144, 22)]
    prev = None
    value = None
    for n_rad, n_th in levels:
        value = integrate_radial_angular(spec, integrand, r_max, n_rad, n_th)
        if prev is not None:
            scale = np.max(np.abs(value)) + 1e-300
            if np.max(np.abs(value - prev)) <= rtol * scale:
                return value, True
        prev = value
    return value, False


def _integration_radius(spec: KernelSpec) -> float:
    """Radius out to which kernel integrals are taken by quadrature: the support
    radius, or an unbounded kernel's last breakpoint, beyond which _closed_tail
    supplies the rest."""
    R = spec.support_radius
    return R if np.isfinite(R) else max(b for p in spec.profiles for b in p.breakpoints())


def _closed_tail(spec: KernelSpec, power: float, r: float, gradient: bool = False) -> float:
    """int_r^inf f1(s) s^power ds (with gradient, of |f1'(s)| s^power) in closed form.

    Zero from the support radius on.  An unbounded scalar kernel takes the
    tail of its profile f1; raises QuadratureUnderresolved when the profile
    gives none at r (or the kernel is not scalar), so a missing tail is never
    dropped from a moment.  The value may be inf for a divergent moment.
    """
    if r >= spec.support_radius:
        return 0.0
    name = "tail_gradient_moment" if gradient else "tail_radial_moment"
    rule = getattr(spec.f1, name, None) if spec.mode == "scalar" else None
    tail = None if rule is None else rule(power, r)
    if tail is None:
        raise QuadratureUnderresolved(f"no closed-form {name}({power:g}, r) at r = {r:g}")
    return tail


def _moment(spec, integrand, power, weight, what):
    """int integrand(z) dz over R^3: the converged quadrature over the ball of
    _integration_radius plus weight times the profile's _closed_tail of the given
    power beyond it."""
    r = _integration_radius(spec)
    tail = weight * _closed_tail(spec, power, r)
    val, ok = _converged_integral(spec, integrand, r, MOMENT_RTOL)
    if not ok:
        raise QuadratureUnderresolved(f"{what} refinement did not stabilise")
    return val + tail


@dataclass(frozen=True)
class KernelMoments:
    intK: np.ndarray  # (m, m)
    intG: float
    m2: float  # int g |z|^2
    m3grad: float  # int |grad K| |z|^3, nan when its quadrature does not converge
    mq: float  # int g |z|^q

    def finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.intK))
            and np.isfinite(self.intG)
            and np.isfinite(self.m2)
            and np.isfinite(self.m3grad)
            and np.isfinite(self.mq)
        )


def _grad_norm(spec, z, h=1e-6):
    """Frobenius norm of grad K by central differences."""
    acc = np.zeros(z.shape[0])
    for i in range(3):
        dz = np.zeros(3)
        dz[i] = h
        d = (evaluate_kernel(spec, z + dz) - evaluate_kernel(spec, z - dz)) / (2 * h)
        acc += np.einsum("nab,nab->n", d, d)
    return np.sqrt(acc)


def compute_moments(spec: KernelSpec) -> KernelMoments:
    """Kernel moments by adaptive radial-spherical quadrature.

    An unbounded profile adds its closed-form tail beyond the last breakpoint.
    """
    # beyond the integration radius K = f1 Id, so its tail is 4 pi int f1 s^2 ds Id
    intK = _moment(spec, lambda z: evaluate_kernel(spec, z), 2, 4.0 * np.pi * np.eye(spec.m),
                   "intK")

    def g_moment(p):
        return float(_moment(spec, lambda z: min_eigen_g(spec, z) * np.linalg.norm(z, axis=-1) ** p,
                             p + 2, 4.0 * np.pi, f"|z|^{p:g} moment"))

    intG, m2 = g_moment(0), g_moment(2)
    mq = m2 if spec.q == 2 else g_moment(spec.q)

    def g3(z):
        return _grad_norm(spec, z) * np.linalg.norm(z, axis=-1) ** 3

    # scalar tail: |grad K| = sqrt(m) |f1'(r)|, times r^3 and the r^2 Jacobian
    r_int = _integration_radius(spec)
    tail = 4.0 * np.pi * np.sqrt(spec.m) * _closed_tail(spec, 5, r_int, gradient=True)
    # the gradient is a central difference, good to about 1e-6
    m3grad_val, ok = _converged_integral(spec, g3, r_int, 1e-6)
    m3grad = float((m3grad_val if ok else np.nan) + tail)

    intK = 0.5 * (intK + intK.T)
    return KernelMoments(intK, intG, m2, m3grad, mq)


def second_moment_diverges(spec: KernelSpec, probe_radii=(4.0, 8.0, 16.0, 32.0, 64.0)) -> bool:
    """Detect a divergent second moment from growing partial radial integrals."""
    partials = []
    for R in probe_radii:
        val = integrate_radial_angular(
            spec,
            lambda z: min_eigen_g(spec, z) * np.linalg.norm(z, axis=-1) ** 2,
            R,
            n_radial=48,
            n_theta=8,
        )
        partials.append(float(val))
    inc = np.diff(partials)
    return bool(inc[-1] > 0.5 * inc[0] and inc[-1] > 1e-8 * max(partials[-1], 1e-300))


# ---------------------------------------------------------------------------
# assumptions


@dataclass(frozen=True)
class AssumptionReport:
    passed: dict
    annulus: tuple  # (rho1, rho2, k_measured)
    lambda_max_constant: float  # measured C with lambda_max <= C g
    moments: KernelMoments | None
    q: float
    tau: float
    notes: str = ""

    def all_pass(self):
        return all(self.passed.values())

    def to_text(self) -> str:
        lines = [f"assumption_{k} = {'pass' if v else 'FAIL'}" for k, v in self.passed.items()]
        lines.append(f"annulus_rho1 = {self.annulus[0]!r}")
        lines.append(f"annulus_rho2 = {self.annulus[1]!r}")
        lines.append(f"annulus_k = {self.annulus[2]!r}")
        lines.append(f"lambda_max_constant = {self.lambda_max_constant!r}")
        if self.moments is not None:
            lines.append(f"intG = {self.moments.intG!r}")
            lines.append(f"m2 = {self.moments.m2!r}")
            lines.append(f"m3grad = {self.moments.m3grad!r}")
            lines.append(f"mq = {self.moments.mq!r}")
        lines.append(f"q = {self.q!r}")
        lines.append(f"tau = {self.tau!r}")
        if self.notes:
            lines.append(f"notes = {self.notes}")
        return "\n".join(lines) + "\n"


def check_assumptions(spec: KernelSpec, resolution: int = 64) -> AssumptionReport:
    """Verify the structural kernel assumptions numerically.

    resolution controls the sample density used for the pointwise checks
    (evenness, eigenvalue sign, domination constant).
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    rng = np.random.default_rng(12345)
    r_probe = spec.support_radius if np.isfinite(spec.support_radius) else 8.0
    z = rng.standard_normal((resolution * 8, 3))
    z *= (r_probe * rng.random((resolution * 8, 1)) ** (1 / 3)) / np.linalg.norm(
        z, axis=1, keepdims=True
    )

    passed = {}
    K = evaluate_kernel(spec, z)
    Kneg = evaluate_kernel(spec, -z)
    passed["K2_even"] = bool(np.array_equal(K, Kneg))
    passed["K1_symmetric"] = bool(np.allclose(K, np.swapaxes(K, -1, -2), atol=1e-14))

    g = min_eigen_g(spec, z)
    passed["K3_g_nonnegative"] = bool(g.min() >= -1e-12)

    rho1, rho2 = spec.annulus
    r_ann = rho1 + (rho2 - rho1) * (np.arange(1, 4 * resolution) / (4 * resolution))
    dirs = rng.standard_normal((8, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z_ann = (r_ann[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    g_ann = min_eigen_g(spec, z_ann)
    k_measured = float(g_ann.min())
    passed["K3_annulus"] = k_measured > 0.0

    diverges = second_moment_diverges(spec) if not np.isfinite(spec.support_radius) else False
    moments = None
    if diverges:
        passed["K4_second_moment"] = False
        passed["K6_grad_moment"] = False
        passed["Kprime_q_moment"] = False
        Cmax = np.nan
        passed["K5_domination"] = False
        notes = "second moment divergent; remaining moments not computed"
    else:
        moments = compute_moments(spec)
        passed["K4_second_moment"] = bool(np.isfinite(moments.m2) and np.isfinite(moments.intG))
        passed["K6_grad_moment"] = bool(np.isfinite(moments.m3grad))
        passed["Kprime_q_moment"] = bool(np.isfinite(moments.mq))
        lam_max = max_eigen(spec, z)
        # domination |K| <= C g: only points carrying non-negligible mass matter
        sig = lam_max > 1e-12 * max(lam_max.max(), 1e-300)
        gpos = g > 0.0
        Cmax = float((lam_max[sig & gpos] / g[sig & gpos]).max()) if (sig & gpos).any() else 1.0
        passed["K5_domination"] = bool(np.isfinite(Cmax) and np.all(gpos[sig]))
        notes = ""

    return AssumptionReport(
        passed, (rho1, rho2, k_measured), Cmax, moments, spec.q, spec.tau, notes
    )


# ---------------------------------------------------------------------------
# elastic tensor


@dataclass(frozen=True)
class ElasticTensor:
    L: np.ndarray  # (3, 3, m, m), L[i, j, a, b]

    def contract(self, xi: np.ndarray) -> float:
        """L xi . xi for xi of shape (m, 3) (rows: components, cols: directions)."""
        return float(np.einsum("ijab,ai,bj->", self.L, xi, xi))

    def isotropic_constant(self):
        """If L = lambda * delta_ij delta_ab, return lambda; else None."""
        m = self.L.shape[2]
        lam = np.trace(np.trace(self.L, axis1=0, axis2=1)) / (3 * m)
        iso = lam * np.einsum("ij,ab->ijab", np.eye(3), np.eye(m))
        if np.max(np.abs(self.L - iso)) <= 1e-7 * max(abs(lam), 1e-300):
            return float(lam)
        return None


def elastic_tensor(spec: KernelSpec) -> ElasticTensor:
    """L[i,j,a,b] = (1/4) int K_ab(z) z_i z_j dz, symmetrised."""

    def integrand(z):
        K = evaluate_kernel(spec, z)
        return np.einsum("ni,nj,nab->nijab", z, z, K)

    # beyond the integration radius K = f1 Id, and z_i z_j averages to |z|^2 delta_ij / 3
    iso = (4.0 * np.pi / 3.0) * np.einsum("ij,ab->ijab", np.eye(3), np.eye(spec.m))
    L = 0.25 * _moment(spec, integrand, 4, iso, "elastic tensor")
    L = 0.5 * (L + np.einsum("ijab->jiba", L))
    return ElasticTensor(L)


# seeded unit directions of ellipticity_bounds' Rayleigh-quotient cross-check
RAYLEIGH_SAMPLES = 100


@dataclass(frozen=True)
class EllipticityBounds:
    lower: float  # annulus lower bound with the radial Jacobian included
    lower_quoted: float  # the constant as quoted in the source derivation
    upper: float
    rayleigh_min: float
    rayleigh_max: float
    jacobian_discrepancy: bool  # True when the two lower-bound constants differ


def ellipticity_bounds(spec: KernelSpec, tensor: ElasticTensor | None = None,
                       report: AssumptionReport | None = None) -> EllipticityBounds:
    """Structural ellipticity bounds for L plus a sampled Rayleigh cross-check.

    k, C and m2 come from the assumption report (check_assumptions(spec, 32)
    when none is given).  Two annulus lower-bound constants are emitted: the
    dimensionally consistent one, k*pi*(rho2^5 - rho1^5)/15 (the annulus
    second-moment with the r^2 Jacobian), and the quoted
    k*pi*(rho2^3 - rho1^3)/9 which omits it.
    """
    if tensor is None:
        tensor = elastic_tensor(spec)
    if report is None:
        report = check_assumptions(spec, 32)
    rho1, rho2 = spec.annulus
    k = max(report.annulus[2], 0.0)
    lower = k * np.pi * (rho2**5 - rho1**5) / 15.0
    lower_quoted = k * np.pi * (rho2**3 - rho1**3) / 9.0
    # a divergent second moment (no moments in the report) bounds nothing above
    upper = np.inf if report.moments is None else 0.25 * report.lambda_max_constant * report.moments.m2

    rng = np.random.default_rng(7)
    xi = rng.standard_normal((RAYLEIGH_SAMPLES, spec.m, 3))
    xi /= np.sqrt(np.einsum("nai,nai->n", xi, xi))[:, None, None]
    vals = np.einsum("ijab,nai,nbj->n", tensor.L, xi, xi)
    disc = abs(lower - lower_quoted) > 1e-12 * max(lower, lower_quoted, 1e-300)
    return EllipticityBounds(lower, lower_quoted, upper, float(vals.min()), float(vals.max()), disc)


def radial_tail(spec: KernelSpec, r) -> np.ndarray:
    """integral_{|z| > r} lambda_max(K(z)) dz per radius r, lambda_max taken as the
    largest over four directions.

    A midpoint table out to the support radius (64 times the integration
    radius for an unbounded kernel) plus 4 pi _closed_tail(2) beyond it.
    """
    R = spec.support_radius
    r_hi = R if np.isfinite(R) else 64.0 * _integration_radius(spec)
    rs = np.linspace(0.0, r_hi, 2049)
    mid = 0.5 * (rs[:-1] + rs[1:])
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                     [0.577350269189626, 0.577350269189626, 0.577350269189626]])
    lam = np.max([max_eigen(spec, mid[:, None] * d[None, :]) for d in dirs], axis=0)
    cum = np.concatenate([[0.0], np.cumsum(4.0 * np.pi * mid**2 * lam * np.diff(rs))])
    r = np.asarray(r, dtype=float)
    beyond = np.vectorize(lambda s: 4.0 * np.pi * _closed_tail(spec, 2, max(s, r_hi)),
                          otypes=[float])(r)
    return np.interp(np.minimum(r, r_hi), rs, cum[-1] - cum) + beyond


# ---------------------------------------------------------------------------
# lattice sampling

# largest (2S+1)^3 stencil sample_on_lattice builds; its kernel values take
# 430 MB at m = 5, and an unbounded tail can ask for far more
MAX_STENCIL_SAMPLES = 129**3
# cells the positivity annulus eps (rho2 - rho1) must span at least
MIN_CELLS_ACROSS = 4
# tail-moment bound at which sample_on_lattice truncates an unbounded kernel
TRUNC_TOL = 1e-3


@dataclass(frozen=True)
class SampledKernel:
    """Lattice samples of K_eps(z) = eps^-3 K(z/eps) on the convolution stencil."""

    spec: KernelSpec
    eps: float
    h: float
    radius_cells: int
    values: np.ndarray  # (2S+1, 2S+1, 2S+1, m, m); zero outside the truncation ball
    r_trunc: float
    trunc_error: float
    # scratch space for transform caches keyed by padded shape; not part of identity
    _cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self):
        return self.spec.m

    @property
    def intK_disc(self) -> np.ndarray:
        """Discrete stencil sum, sum_z K_eps(z) h^3; the moment matrix used by field energies."""
        return self.values.sum(axis=(0, 1, 2)) * self.h**3

    def g_disc(self) -> np.ndarray:
        """Minimum eigenvalue per stencil sample."""
        return np.linalg.eigvalsh(self.values)[..., 0]


def truncation_radius(spec: KernelSpec, eps: float, tol: float, moments: KernelMoments | None):
    """Stencil radius and tail bound; moments may be None only for a compact support."""
    if np.isfinite(spec.support_radius):
        return eps * spec.support_radius, 0.0
    # tail estimate from the q-th moment: mass beyond R is <= mq (eps/R)^q;
    # the energy-scale version carries the eps^-2 prefactor via (q-2)
    q = spec.q
    R = eps * (moments.mq / tol) ** (1.0 / (q - 2.0)) if q > 2 else eps * 1e3
    err = moments.mq * (eps / R) ** (q - 2.0)
    return R, err


def stencil_offsets(radius_cells: int, h: float) -> np.ndarray:
    """Offsets z of the centred (2S+1)^3 lattice stencil, shape (2S+1,)*3 + (3,)."""
    idx = np.arange(-radius_cells, radius_cells + 1) * h
    return np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1)


def sample_on_lattice(spec: KernelSpec, eps: float, h: float,
                      r_max: float | None = None) -> SampledKernel:
    """Sample K_eps on the cubic stencil of spacing h.

    Requires the annulus to be resolved by at least MIN_CELLS_ACROSS cells;
    the stencil is truncated where the tail-moment estimate drops below
    TRUNC_TOL (or at r_max if given).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rho1, rho2 = spec.annulus
    if h > eps * (rho2 - rho1) / MIN_CELLS_ACROSS:
        raise ResolutionMismatch(
            f"h = {h:g} too coarse: need h <= eps*(rho2-rho1)/{MIN_CELLS_ACROSS} = "
            f"{eps * (rho2 - rho1) / MIN_CELLS_ACROSS:g}"
        )
    moments = None if np.isfinite(spec.support_radius) else compute_moments(spec)
    r_trunc, err = truncation_radius(spec, eps, TRUNC_TOL, moments)
    if r_max is not None and r_trunc > r_max:
        if np.isfinite(spec.support_radius):
            raise ResolutionMismatch("compact kernel support exceeds the allowed stencil radius")
        r_trunc = r_max
        q = spec.q
        err = moments.mq * (eps / r_trunc) ** (q - 2.0) if q > 2 else np.inf
    S = np.floor(r_trunc / h + 1e-12)
    if not (2 * S + 1) ** 3 <= MAX_STENCIL_SAMPLES:
        raise ResolutionMismatch(
            f"stencil of {2 * S + 1:.0f}^3 samples (radius {S:.0f} cells) exceeds the "
            f"{MAX_STENCIL_SAMPLES} allowed; pass r_max to cap an unbounded kernel's stencil"
        )
    S = int(S)
    Z = stencil_offsets(S, h)
    r = np.linalg.norm(Z, axis=-1)
    vals = evaluate_kernel(spec, Z / eps) / eps**3
    vals = np.where((r <= r_trunc)[..., None, None], vals, 0.0)
    return SampledKernel(spec, eps, h, S, vals, r_trunc, err)


# ---------------------------------------------------------------------------
# presets


def kernel_preset(name: str, m: int, params: dict | None = None) -> KernelSpec:
    """Named kernel presets used by the CLI and the test suite.

    strength rescales the amplitude so that int g(z) dz equals the requested
    value (the mean-field coupling), except for the annulus preset whose k is
    prescribed directly.
    """
    params = dict(params or {})
    if name == "zero":
        # no positivity annulus to resolve; tag the full unit ball
        return KernelSpec("scalar", m, ZERO_PROFILE, annulus=(0.0, 1.0))
    if name == "annulus":
        k = params.pop("k", 1.0)
        r1 = params.pop("rho1", 0.5)
        r2 = params.pop("rho2", 1.0)
        spec = KernelSpec("scalar", m, AnnulusProfile(k, r1, r2), annulus=(r1, r2), **params)
        return spec
    if name in ("gaussian", "gaussian-nematic"):
        strength = params.pop("strength", 4.0)
        width = params.pop("width", 1.0)
        cut = params.pop("cut", 6.0)
        a2 = params.pop("f2", 0.0)
        a3 = params.pop("f3", 0.0)
        base = np.pi ** 1.5 * width**3  # int exp(-(r/w)^2) dz for an uncut Gaussian
        amp = strength / base
        f1 = GaussianProfile(amp, width, cut)
        # the positivity annulus can span nearly the whole support: the profile
        # is strictly positive inside the cutoff
        ann = (0.1 * width, 0.9 * cut * width)
        if name == "gaussian":
            return KernelSpec("scalar", m, f1, annulus=ann, **params)
        f2 = GaussianProfile(a2 * amp, width, cut) if a2 else None
        f3 = GaussianProfile(a3 * amp, width, cut) if a3 else None
        return KernelSpec("nematic", 5, f1, f2, f3, annulus=ann, **params)
    if name == "inverse6":
        amp = params.pop("amplitude", 1.0)
        r_on = params.pop("r_on", 0.5)
        r_full = params.pop("r_full", 1.0)
        q = params.pop("q", 2.5)
        return KernelSpec(
            "scalar",
            m,
            InverseSixthProfile(amp, r_on, r_full),
            q=q,
            annulus=(r_full, 2.0 * r_full),
            **params,
        )
    raise ValueError(f"unknown kernel preset {name!r}")
