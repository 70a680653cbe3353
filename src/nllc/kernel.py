"""Frame-indifferent interaction kernels: construction, checks, moments, sampling.

A kernel is built from up to three radial profiles.  In scalar-isotropic
mode K(z) = f1(|z|) Id_m; in nematic mode (m = 5, traceless-symmetric
coordinates) the bilinear form is

    K(z) Q1 . Q2 = f1(|z|) Q1.Q2 + f2(|z|) Q1 z . Q2 z
                   + f3(|z|) (Q1 z . z)(Q2 z . z).

Both modes are frame indifferent, K(Rz) = D(R) K(z) D(R)^T with D orthogonal
(the identity in scalar mode).  The eigenvalues of K(z), tr K(z) and
|grad K(z)| therefore depend on |z| only, and the sphere average of K
commutes with every D(R); as the m = 5 representation is irreducible, it is
(tr K / m) Id by Schur's lemma.  So every kernel integral is an adaptive
radial Gauss rule along the one ray r e3, except a nematic kernel's elastic
tensor, which also takes a fixed sphere rule that is exact for its angular
polynomials (a scalar kernel's is exactly lambda delta_ij delta_ab).
The integrals run out to one integration radius, the support radius or an
unbounded kernel's last breakpoint, and add one closed-form tail beyond it,
which raises QuadratureUnderresolved when the profile has none.
"""

from dataclasses import dataclass, field as dc_field, replace as dc_replace

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
    q: float = 2.0  # tail-moment exponent: sets mq, and where an unbounded kernel's stencil is cut
    annulus: tuple = (0.5, 1.0)  # candidate (rho1, rho2) for the lower-bound assumption

    def __post_init__(self):
        if self.mode not in ("scalar", "nematic"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        if self.mode == "nematic" and self.m != 5:
            raise ValueError("nematic mode requires m = 5")
        if not 2 <= self.q < np.inf:  # NaN fails too
            raise ValueError(f"tail exponent q must be finite and >= 2, not {self.q!r}")

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
    return np.linalg.eigvalsh(evaluate_kernel(spec, z))[..., 0]


def _ray(r) -> np.ndarray:
    """The points r e3, shape r.shape + (3,): frame indifference makes the
    spectrum, the trace and |grad K| on the sphere |z| = r those at r e3."""
    return np.multiply.outer(r, [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# quadrature


def _branch_crossing(spec: KernelSpec) -> list:
    """Radii where g = lambda_min(K) changes eigenvalue branch on the ray, a kink
    that a Gauss segment only resolves when split there.

    On r e3, K is diagonal with the entries f1 (twice), f1 + f2 r^2/2 (twice)
    and f1 + (2/3)(f2 + f3 r^2) r^2.  For f2 and f3 of one shape,
    f2/f3 is the constant a2/a3 of their amplitudes, and g changes branch only
    when a2 a3 < 0: at r^2 = -a2/a3 for a2 > 0 and at r^2 = -a2/(4 a3) for a2 < 0.
    """
    f2, f3 = spec.f2, spec.f3
    a2, a3 = getattr(f2, "amplitude", 0.0), getattr(f3, "amplitude", 0.0)
    if spec.mode != "nematic" or not a2 * a3 < 0.0 or \
            dc_replace(f2, amplitude=1.0) != dc_replace(f3, amplitude=1.0):
        return []
    return [float(np.sqrt(-a2 / (a3 if a2 > 0.0 else 4.0 * a3)))]


def _radial_rule(spec: KernelSpec, r_max: float, n: int):
    """n-point Gauss-Legendre nodes and weights on each segment of (0, r_max)
    between the profiles' breakpoints and the branch crossings of g."""
    cuts = [b for p in spec.profiles for b in p.breakpoints()] + _branch_crossing(spec)
    pts = sorted({0.0, r_max} | {float(b) for b in cuts if 0.0 < b < r_max})
    a, b = np.array(pts[:-1]), np.array(pts[1:])
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)[:, None]
    return (0.5 * (a + b)[:, None] + half * x).ravel(), (half * w).ravel()


def _converged_integrals(spec, integrand, r_max, rtol):
    """Refine the radial rule on (0, r_max) until each integral stabilises to rtol.

    integrand(r) returns a list of arrays of shape r.shape + (...), one radial
    density per integral, and is evaluated once per level; each integral
    keeps the value of the level at which it stabilised.  Returns the lists
    of values and of converged flags.
    """
    values, ok = None, None
    for n in (24, 48, 96, 144):
        r, w = _radial_rule(spec, r_max, n)
        level = [np.tensordot(w, vals, axes=(0, 0)) for vals in integrand(r)]
        if values is None:
            values, ok = level, [False] * len(level)
            continue
        for i, value in enumerate(level):
            if not ok[i]:
                scale = np.max(np.abs(value)) + 1e-300
                ok[i] = bool(np.max(np.abs(value - values[i])) <= rtol * scale)
                values[i] = value
        if all(ok):
            break
    return values, ok


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


def _moments(spec, integrand, terms):
    """int f(z) dz over R^3 for each f whose radial density (the integral of f
    over the sphere |z| = r) is in the list integrand(r) returns: the converged
    radial rule out to _integration_radius, each to its own level, plus weight
    times the profile's _closed_tail of the given power beyond it, for
    terms = [(power, weight, what), ...], one per f."""
    r = _integration_radius(spec)
    tails = [weight * _closed_tail(spec, power, r) for power, weight, _ in terms]
    vals, ok = _converged_integrals(spec, integrand, r, MOMENT_RTOL)
    for flag, (_, _, what) in zip(ok, terms):
        if not flag:
            raise QuadratureUnderresolved(f"{what} refinement did not stabilise")
    return [val + tail for val, tail in zip(vals, tails)]


@dataclass(frozen=True)
class KernelMoments:
    intK: np.ndarray  # (m, m)
    intG: float
    m2: float  # int g |z|^2
    m3grad: float  # int |grad K| |z|^3, nan when its quadrature does not converge
    mq: float  # int g |z|^q


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
    """Kernel moments by adaptive radial quadrature along one ray.

    intK is kappa Id, with kappa the integral of tr K / m.  An unbounded
    profile adds its closed-form tail beyond the last breakpoint.
    """
    # one kernel evaluation and one eigvalsh per level serve intK and the g
    # moments.  Beyond the integration radius K = f1 Id, so the tail of kappa
    # is 4 pi int f1 s^2 ds and that of g |z|^p is 4 pi int f1 s^(p+2) ds.
    powers = (0, 2) if spec.q == 2 else (0, 2, spec.q)

    def integrand(r):
        lam = np.linalg.eigvalsh(evaluate_kernel(spec, _ray(r)))
        shell = 4.0 * np.pi * r**2
        return [shell * lam.mean(axis=-1)] + [shell * lam[:, 0] * r**p for p in powers]

    terms = [(2, 4.0 * np.pi, "intK")]
    terms += [(p + 2, 4.0 * np.pi, f"|z|^{p:g} moment") for p in powers]
    kappa, intG, m2, *rest = (float(v) for v in _moments(spec, integrand, terms))
    mq = rest[0] if rest else m2

    def g3(r):
        return [4.0 * np.pi * r**5 * _grad_norm(spec, _ray(r))]

    # scalar tail: |grad K| = sqrt(m) |f1'(r)|, times r^3 and the r^2 Jacobian
    r_int = _integration_radius(spec)
    tail = 4.0 * np.pi * np.sqrt(spec.m) * _closed_tail(spec, 5, r_int, gradient=True)
    # the gradient is a central difference, good to about 1e-6
    (m3grad_val,), (ok,) = _converged_integrals(spec, g3, r_int, 1e-6)
    m3grad = float((m3grad_val if ok else np.nan) + tail)
    return KernelMoments(kappa * np.eye(spec.m), intG, m2, m3grad, mq)


# ---------------------------------------------------------------------------
# assumptions


@dataclass(frozen=True)
class AssumptionReport:
    passed: dict
    annulus: tuple  # (rho1, rho2, k_measured)
    lambda_max_constant: float  # measured C with lambda_max <= C g
    moments: KernelMoments | None
    q: float
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
        if self.notes:
            lines.append(f"notes = {self.notes}")
        return "\n".join(lines) + "\n"


def _check_points(spec: KernelSpec) -> np.ndarray:
    """The (n, 3) points of check_assumptions' pointwise checks: the nodes of the
    first radial rule level out to the integration radius, along the 32 off-axis
    directions of sphere_rule(4, 8).  Frame indifference makes the spectrum on
    each sphere that at any of its points; the directions give evenness and
    symmetry something to test."""
    r, _ = _radial_rule(spec, _integration_radius(spec), 24)
    return np.multiply.outer(r, sphere_rule(4, 8)[0]).reshape(-1, 3)


def check_assumptions(spec: KernelSpec) -> AssumptionReport:
    """Verify the structural kernel assumptions numerically.

    Evenness, symmetry, the sign of g and the domination constant are checked
    at the deterministic _check_points and their mirror images, the annulus
    on a ladder of 255 radii along the ray.  The moments are compute_moments';
    when it raises QuadratureUnderresolved (a profile without a closed-form
    tail, say), the moment assumptions and the domination fail and notes says why.
    """
    z = _check_points(spec)
    passed = {}
    K = evaluate_kernel(spec, z)
    passed["K2_even"] = bool(np.array_equal(K, evaluate_kernel(spec, -z)))
    passed["K1_symmetric"] = bool(np.allclose(K, np.swapaxes(K, -1, -2), atol=1e-14))

    lam = np.linalg.eigvalsh(K)
    g, lam_max = lam[:, 0], lam[:, -1]
    passed["K3_g_nonnegative"] = bool(g.min() >= -1e-12)

    rho1, rho2 = spec.annulus
    r_ann = rho1 + (rho2 - rho1) * (np.arange(1, 256) / 256)
    k_measured = float(min_eigen_g(spec, _ray(r_ann)).min())
    passed["K3_annulus"] = k_measured > 0.0

    try:
        moments, notes = compute_moments(spec), ""
    except QuadratureUnderresolved as exc:
        moments, notes = None, f"moments not computed: {exc}"
    if moments is None:
        for name in ("K4_second_moment", "K6_grad_moment", "Kprime_q_moment", "K5_domination"):
            passed[name] = False
        Cmax = np.nan
    else:
        passed["K4_second_moment"] = bool(np.isfinite(moments.m2) and np.isfinite(moments.intG))
        passed["K6_grad_moment"] = bool(np.isfinite(moments.m3grad))
        passed["Kprime_q_moment"] = bool(np.isfinite(moments.mq))
        # domination |K| <= C g: only points carrying non-negligible mass matter
        sig = lam_max > 1e-12 * max(lam_max.max(), 1e-300)
        gpos = g > 0.0
        Cmax = float((lam_max[sig & gpos] / g[sig & gpos]).max()) if (sig & gpos).any() else 1.0
        passed["K5_domination"] = bool(np.isfinite(Cmax) and np.all(gpos[sig]))

    return AssumptionReport(
        passed, (rho1, rho2, k_measured), Cmax, moments, spec.q, notes
    )


# ---------------------------------------------------------------------------
# elastic tensor


@dataclass(frozen=True)
class ElasticTensor:
    L: np.ndarray  # (3, 3, m, m), L[i, j, a, b]

    @property
    def matrix(self) -> np.ndarray:
        """L as the (3m, 3m) matrix M[(i,a),(j,b)] = L[i,j,a,b], so that
        L xi . xi = x.Mx for x[(i,a)] = xi[a,i]; symmetric as elastic_tensor builds L."""
        m = self.L.shape[2]
        return self.L.transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)

    def isotropic_constant(self):
        """If L = lambda * delta_ij delta_ab, return lambda; else None."""
        m = self.L.shape[2]
        lam = np.trace(np.trace(self.L, axis1=0, axis2=1)) / (3 * m)
        iso = lam * np.einsum("ij,ab->ijab", np.eye(3), np.eye(m))
        if np.max(np.abs(self.L - iso)) <= 1e-7 * max(abs(lam), 1e-300):
            return float(lam)
        return None


def elastic_tensor(spec: KernelSpec) -> ElasticTensor:
    """L[i,j,a,b] = (1/4) int K_ab(z) z_i z_j dz, symmetrised.

    In scalar mode K = f1 Id and z_i z_j averages to |z|^2 delta_ij / 3 on
    each sphere, so L = lambda delta_ij delta_ab exactly, with the one radial
    moment lambda = (pi/3) int f1(r) r^4 dr: the cross entries are zeros, not
    quadrature round-off.  Nematic kernels take _tensor_quadrature.
    """
    if spec.mode == "scalar":
        lam = (np.pi / 3.0) * _moments(spec, lambda r: [spec.f1(r) * r**4],
                                       [(4, 1.0, "elastic tensor")])[0]
        return ElasticTensor(lam * np.einsum("ij,ab->ijab", np.eye(3), np.eye(spec.m)))
    return _tensor_quadrature(spec)


def _tensor_quadrature(spec: KernelSpec) -> ElasticTensor:
    """elastic_tensor by the radial rule of the moments times the 32 nodes of
    sphere_rule(4, 8), which is exact for the degree <= 6 angular polynomials
    of K(z) z_i z_j."""
    s, ws = sphere_rule(4, 8)
    ss = np.einsum("n,ni,nj->nij", ws * (np.pi / 4), s, s)  # the rule's 2 pi / n_phi

    def integrand(r):
        K = evaluate_kernel(spec, np.multiply.outer(r, s))  # (nr, 32, m, m)
        return [np.einsum("nij,rnab->rijab", ss, K) * (r**4)[:, None, None, None, None]]

    # beyond the integration radius K = f1 Id, and z_i z_j averages to |z|^2 delta_ij / 3
    iso = (4.0 * np.pi / 3.0) * np.einsum("ij,ab->ijab", np.eye(3), np.eye(spec.m))
    L = 0.25 * _moments(spec, integrand, [(4, iso, "elastic tensor")])[0]
    L = 0.5 * (L + np.einsum("ijab->jiba", L))
    return ElasticTensor(L)


@dataclass(frozen=True)
class EllipticityBounds:
    lower: float  # annulus lower bound with the radial Jacobian included
    lower_quoted: float  # the constant as quoted in the source derivation
    upper: float
    rayleigh_min: float
    rayleigh_max: float
    jacobian_discrepancy: bool  # True when the two lower-bound constants differ


def ellipticity_bounds(spec: KernelSpec, tensor: ElasticTensor,
                       report: AssumptionReport) -> EllipticityBounds:
    """Structural ellipticity bounds for L and the exact range of its Rayleigh quotient.

    k, C and m2 come from report, spec's check_assumptions.  Two annulus
    lower-bound constants are emitted: the dimensionally consistent one,
    k*pi*(rho2^5 - rho1^5)/15 (the annulus second-moment with the r^2
    Jacobian), and the quoted k*pi*(rho2^3 - rho1^3)/9 which omits it.
    rayleigh_min and rayleigh_max are the extreme eigenvalues of
    tensor.matrix, the bounds of L xi . xi over unit xi.
    """
    rho1, rho2 = spec.annulus
    k = max(report.annulus[2], 0.0)
    lower = k * np.pi * (rho2**5 - rho1**5) / 15.0
    lower_quoted = k * np.pi * (rho2**3 - rho1**3) / 9.0
    # a kernel without moments in the report bounds nothing above
    upper = np.inf if report.moments is None else 0.25 * report.lambda_max_constant * report.moments.m2
    lam = np.linalg.eigvalsh(tensor.matrix)
    disc = abs(lower - lower_quoted) > 1e-12 * max(lower, lower_quoted, 1e-300)
    return EllipticityBounds(lower, lower_quoted, upper, float(lam[0]), float(lam[-1]), disc)


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
    # scratch space for transform caches keyed by padded shape; not part of identity,
    # and fresh in every instance, dataclasses.replace's included
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

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
    if np.isfinite(spec.support_radius):
        r_trunc, err = eps * spec.support_radius, 0.0
        if r_max is not None and r_trunc > r_max:
            raise ResolutionMismatch("compact kernel support exceeds the allowed stencil radius")
    else:
        # tail estimate from the q-th moment: mass beyond R is <= mq (eps/R)^q;
        # the energy-scale version carries the eps^-2 prefactor via (q-2)
        mq, q = compute_moments(spec).mq, spec.q
        r_trunc = eps * (mq / TRUNC_TOL) ** (1.0 / (q - 2.0)) if q > 2 else eps * 1e3
        if r_max is not None:
            r_trunc = min(r_trunc, r_max)
        err = mq * (eps / r_trunc) ** (q - 2.0)
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


# every preset of kernel_preset and the parameters it reads, with their defaults
_TAIL = {"q": KernelSpec.q}  # the tail-moment exponent
_GAUSSIAN = {"strength": 4.0, "width": 1.0, "cut": 6.0}
PRESETS = {
    "zero": {},
    "annulus": {"k": 1.0, "rho1": 0.5, "rho2": 1.0, **_TAIL},
    "gaussian": {**_GAUSSIAN, **_TAIL},
    "gaussian-nematic": {**_GAUSSIAN, "f2": 0.0, "f3": 0.0, **_TAIL},
    "inverse6": {"amplitude": 1.0, "r_on": 0.5, "r_full": 1.0, **_TAIL, "q": 2.5},
}


def preset_params(table: dict, name: str, params: dict) -> dict:
    """params over the defaults of preset name of a {preset: {param: default}} table;
    a name outside the table, or a key its entry lacks, raises ValueError."""
    if name not in table:
        raise ValueError(f"unknown preset {name!r}")
    other = [key for key in params if key not in table[name]]
    if other:
        raise ValueError(f"{', '.join(other)}: not a parameter of the {name} preset")
    return {**table[name], **params}


def kernel_preset(name: str, m: int, params: dict | None = None) -> KernelSpec:
    """Named kernel presets used by the CLI and the test suite.

    strength rescales the amplitude so that int g(z) dz equals the requested
    value (the mean-field coupling), except for the annulus preset whose k is
    prescribed directly.
    """
    p = preset_params(PRESETS, name, params or {})
    if name == "zero":
        # no positivity annulus to resolve; tag the full unit ball
        return KernelSpec("scalar", m, ZERO_PROFILE, annulus=(0.0, 1.0))
    q = p["q"]
    if name == "annulus":
        r1, r2 = p["rho1"], p["rho2"]
        return KernelSpec("scalar", m, AnnulusProfile(p["k"], r1, r2), annulus=(r1, r2), q=q)
    if name == "inverse6":
        r_on, r_full = p["r_on"], p["r_full"]
        if not r_on < r_full < np.inf:  # the cutoff divides by r_full - r_on
            raise ValueError(f"inverse6 needs r_on < r_full < inf, not {r_on!r}, {r_full!r}")
        profile = InverseSixthProfile(p["amplitude"], r_on, r_full)
        return KernelSpec("scalar", m, profile, annulus=(r_full, 2.0 * r_full), q=q)
    width, cut = p["width"], p["cut"]
    for key in ("width", "cut"):
        if not 0 < p[key] < np.inf:
            raise ValueError(f"Gaussian {key} must be finite and > 0, not {p[key]!r}")
    amp = p["strength"] / (np.pi ** 1.5 * width**3)  # int exp(-(r/w)^2) dz for an uncut Gaussian
    f1 = GaussianProfile(amp, width, cut)
    # the positivity annulus can span nearly the whole support: the profile
    # is strictly positive inside the cutoff
    ann = (0.1 * width, 0.9 * cut * width)
    if name == "gaussian":
        return KernelSpec("scalar", m, f1, annulus=ann, q=q)
    f2 = GaussianProfile(p["f2"] * amp, width, cut) if p["f2"] else None
    f3 = GaussianProfile(p["f3"] * amp, width, cut) if p["f3"] else None
    return KernelSpec("nematic", m, f1, f2, f3, annulus=ann, q=q)
