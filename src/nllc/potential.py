"""Microscopic models and the singular / bulk potentials.

The microscopic state space is a compact manifold with a probability
quadrature and an order-parameter map sigma into R^m.  The singular
potential psi_s(u) is the minimum relative entropy over densities with
prescribed sigma-moment u; it is evaluated through its convex dual, the
log-partition function lnZ(b), with Lambda = grad psi_s and
Lambda^{-1} = grad lnZ forming a Legendre pair.

Two paths evaluate lnZ and its derivatives.  The circle model "s1" (sigma =
(cos 2theta, sin 2theta) under the uniform measure) has the closed form lnZ(b)
= log I0(|b|), so log_partition, lambda_inverse, covariance and dual_map use
modified Bessel functions there; its quadrature nodes serve only
minimal_distribution and test oracles.  Every other model, s2 included, sums
over its quadrature nodes; that path is also the reference for s1 (a
MicroModel with the s1 nodes under another name takes it).
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
# scipy.fft loads scipy.special already, so the Bessel functions cost no import
from scipy.special import i0e, i1e

from .errors import DegenerateMinimum, OutsideMomentDomain

# Dual-variable cap: |b| beyond this is treated as "u outside or at the
# boundary of the moment set" (psi_s = +infinity in the continuum model).
B_CAP = 50.0
# residual at which dual_map stops a cell, and its Newton step budget
DUAL_TOL, DUAL_MAX_ITER = 1e-12, 80
# transverse curvature of psi_b below which the vacuum orbit counts as degenerate
DEGENERACY_TOL = 1e-6
# hessian_diagnostics: seeded moments sampled out to this share of sigma_max
HESSIAN_SAMPLES, HESSIAN_RADIUS = 200, 0.9
# s1: below this |b|, A(s)/s = 1/2 - s^2/16 + ... is 1/2 to double precision
S1_SMALL = 1e-8


def sym0_basis() -> np.ndarray:
    """Frobenius-orthonormal basis of traceless symmetric 3x3 matrices, shape (5, 3, 3)."""
    s2 = 1.0 / np.sqrt(2.0)
    s6 = 1.0 / np.sqrt(6.0)
    E = np.zeros((5, 3, 3))
    E[0] = np.diag([s2, -s2, 0.0])
    E[1] = np.diag([s6, s6, -2.0 * s6])
    E[2, 0, 1] = E[2, 1, 0] = s2
    E[3, 0, 2] = E[3, 2, 0] = s2
    E[4, 1, 2] = E[4, 2, 1] = s2
    return E


_SYM0_BASIS = sym0_basis()


def q_tensor_coords(p: np.ndarray) -> np.ndarray:
    """Coordinates of sqrt(3/2) * (p (x) p - I/3) in the orthonormal basis.

    The sqrt(3/2) scaling makes |sigma(p)| = 1 for every unit vector p, so the
    moment set is ball-like and the vacuum orbit sits at a pure radius.
    """
    p = np.asarray(p, dtype=float)
    Q = p[..., :, None] * p[..., None, :] - np.eye(3) / 3.0
    return np.sqrt(1.5) * np.einsum("aij,...ij->...a", _SYM0_BASIS, Q)


def coords_to_matrix(y: np.ndarray) -> np.ndarray:
    """Inverse of the coordinate map: y in R^5 -> traceless symmetric matrix."""
    return np.einsum("...a,aij->...ij", np.asarray(y, dtype=float) / np.sqrt(1.5), _SYM0_BASIS)


@dataclass(frozen=True)
class MicroModel:
    """Quadrature description of the microscopic manifold."""

    name: str  # "s1" or "s2"
    m: int
    sigma: np.ndarray  # (n_nodes, m) order-parameter samples
    weights: np.ndarray  # (n_nodes,), positive, sums to 1
    sigma_max: float
    # (n_nodes, m*m) table of sigma_a sigma_b: second moments as one matmul
    sigma2: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = self.weights
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        s = self.sigma
        object.__setattr__(self, "sigma2", (s[:, :, None] * s[:, None, :]).reshape(len(s), -1))


def make_s1_model(n_nodes: int = 256) -> MicroModel:
    """Planar nematic: M = S^1, sigma(theta) = (cos 2theta, sin 2theta), m = 2."""
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    sigma = np.stack([np.cos(2 * theta), np.sin(2 * theta)], axis=1)
    w = np.full(n_nodes, 1.0 / n_nodes)
    return MicroModel("s1", 2, sigma, w, 1.0)


def sphere_rule(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on S^2: Gauss-Legendre in cos(theta) x n_phi uniform phi.

    Returns the (n_theta * n_phi, 3) unit nodes, an antipodal set, and the
    Gauss-Legendre weight w_i of each node's cos(theta): the integral of f over
    S^2 is (2 pi / n_phi) sum_i w_i f(node_i), exact up to high degree.
    """
    x, wx = np.polynomial.legendre.leggauss(n_theta)  # x = cos(polar angle)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    ct = np.repeat(x, n_phi)
    st = np.sqrt(np.clip(1.0 - ct**2, 0.0, None))
    cp = np.tile(np.cos(phi), n_theta)
    sp = np.tile(np.sin(phi), n_theta)
    return np.stack([st * cp, st * sp, ct], axis=1), np.repeat(wx, n_phi)


def make_s2_model(n_theta: int = 24, n_phi: int = 48) -> MicroModel:
    """Nematic: M = S^2 on the sphere_rule nodes (default 1152), uniform measure, m = 5."""
    p, w = sphere_rule(n_theta, n_phi)
    return MicroModel("s2", 5, q_tensor_coords(p), w / (2.0 * n_phi), 1.0)


def _shifted_exp(model: MicroModel, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(b . sigma_i - amax) per node and its shift amax (keepdims), for b of shape (..., m)."""
    a = np.asarray(b, dtype=float) @ model.sigma.T  # (..., n)
    amax = a.max(axis=-1, keepdims=True)
    return np.exp(a - amax), amax


def _tilted_density(model: MicroModel, b: np.ndarray) -> np.ndarray:
    """Quadrature weights of the tilted density w_i exp(b . sigma_i) / Z(b), shape (..., n)."""
    e = _shifted_exp(model, b)[0] * model.weights
    return e / e.sum(axis=-1, keepdims=True)


def _covariance_of(model: MicroModel, f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Covariance of sigma under node weights f with mean u: sum_i f_i sigma_i sigma_i^T - u u^T."""
    m = model.m
    second = (f @ model.sigma2).reshape(f.shape[:-1] + (m, m))
    return second - u[..., :, None] * u[..., None, :]


def _bessel_ratio(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A(s) = I1(s)/I0(s) = d/ds log I0(s), and A(s)/s with its limit 1/2 at s = 0."""
    a = i1e(s) / i0e(s)
    return a, np.where(s > S1_SMALL, a / np.maximum(s, S1_SMALL), 0.5)


# s1: |b| > B_CAP exactly when |u| = A(|b|) > A(B_CAP), since A increases
S1_R_CAP = float(_bessel_ratio(B_CAP)[0])


def log_partition(model: MicroModel, b: np.ndarray) -> np.ndarray:
    """lnZ(b) = ln sum_i w_i exp(b . sigma_i), max-shifted for stability; log I0(|b|) on s1.

    Accepts b of shape (..., m); returns shape (...).
    """
    if model.name == "s1":
        s = np.linalg.norm(b, axis=-1)
        return np.log(i0e(s)) + s
    e, amax = _shifted_exp(model, b)
    return amax[..., 0] + np.log(e @ model.weights)


def lambda_inverse(model: MicroModel, b: np.ndarray) -> np.ndarray:
    """u = grad_b lnZ(b); the mean-field map, the inverse of Lambda.  A(|b|) b/|b| on s1."""
    if model.name == "s1":
        b = np.asarray(b, dtype=float)
        return _bessel_ratio(np.linalg.norm(b, axis=-1))[1][..., None] * b
    return _tilted_density(model, b) @ model.sigma


def covariance(model: MicroModel, b: np.ndarray) -> np.ndarray:
    """Hessian of lnZ: the sigma-covariance under the tilted density, shape (..., m, m).

    On s1 it is A'(s) e e^T + (A/s) (I - e e^T), with s = |b|, e = b/s and
    A' = 1 - A/s - A^2; at b = 0 it is I/2.
    """
    if model.name == "s1":
        b = np.asarray(b, dtype=float)
        s = np.linalg.norm(b, axis=-1)
        a, q = _bessel_ratio(s)
        e = b / np.maximum(s, S1_SMALL)[..., None]
        radial = (1.0 - 2.0 * q - a * a)[..., None, None]  # A' - A/s
        return q[..., None, None] * np.eye(2) + radial * e[..., :, None] * e[..., None, :]
    f = _tilted_density(model, b)
    return _covariance_of(model, f, f @ model.sigma)


def dual_map(model: MicroModel, u: np.ndarray, b0: np.ndarray | None = None) -> np.ndarray:
    """Lambda(u): the dual variable b with grad lnZ(b) = u, by Newton's method.

    Batched over leading axes.  A cell stops updating once its residual
    |lambda_inverse(b) - u| is within DUAL_TOL, so each cell follows the Newton
    sequence of a one-cell call.  Raises OutsideMomentDomain if |u| >=
    sigma_max, if the iteration does not converge in DUAL_MAX_ITER steps, or if
    |b| exceeds B_CAP anywhere, which is the finite-precision image of psi_s
    blowing up towards the boundary of the moment set.

    On s1, b = s u/|u| with A(s) = |u|, by a 1-D Newton per cell (_s1_dual_map);
    b0 is ignored.  Elsewhere a damped Newton on b starts from b0 (zero by
    default), and each step takes one exponential: the tilted density of the
    live cells gives both the residual and, on the cells still above DUAL_TOL,
    the covariance.
    """
    u = np.asarray(u, dtype=float)
    r = np.linalg.norm(u, axis=-1)
    if np.any(r >= model.sigma_max):
        raise OutsideMomentDomain("|u| >= sigma_max")
    if model.name == "s1":
        return _s1_dual_map(u, r)
    b = np.zeros_like(u) if b0 is None else np.array(b0, dtype=float)
    live = np.ones(u.shape[:-1], dtype=bool)  # cells not yet within DUAL_TOL (a NaN stays live)
    eye = np.eye(model.m)
    for _ in range(DUAL_MAX_ITER):
        f = _tilted_density(model, b[live])
        mean = f @ model.sigma
        r = mean - u[live]
        keep = ~(np.linalg.norm(r, axis=-1) <= DUAL_TOL)
        if not keep.any():
            return b
        live[live] = keep
        cov = _covariance_of(model, f[keep], mean[keep])
        # tiny Tikhonov guard keeps the batched solve well posed near the cap
        step = np.linalg.solve(cov + 1e-14 * eye, r[keep][..., None])[..., 0]
        sn = np.linalg.norm(step, axis=-1, keepdims=True)
        b[live] -= step * np.minimum(1.0, 2.0 / np.maximum(sn, 1e-300))
        if np.linalg.norm(b[live], axis=-1).max() > B_CAP:
            raise OutsideMomentDomain("dual variable exceeded cap; u near/outside boundary")
    raise OutsideMomentDomain("Newton did not converge; u near/outside boundary")


def _s1_dual_map(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """s1 dual map b = s u/r with A(s) = r = |u|, one 1-D Newton per cell.

    The start s = r (2 - r^2)/(1 - r^2) lies at most about 7 % above the root.
    A is concave and increasing on s >= 0, so a Newton step lands at or left
    of the root, and from there the iterates rise monotonically to it,
    undamped.  |A(s) - r| is the vector residual
    |lambda_inverse(b) - u|.  The B_CAP test runs before the loop on r, through
    its image A(B_CAP); that also keeps the start away from r -> 1, where A'
    vanishes in floating point.
    """
    if np.any(r > S1_R_CAP):
        raise OutsideMomentDomain("dual variable exceeded cap; u near/outside boundary")
    r = np.reshape(r, -1)  # a 1-D cell axis, also for a single (2,) moment
    s = r * (2.0 - r * r) / (1.0 - r * r)
    live = np.ones(r.shape, dtype=bool)  # a NaN cell stays live
    for _ in range(DUAL_MAX_ITER):
        a, q = _bessel_ratio(s[live])
        res = a - r[live]
        keep = ~(np.abs(res) <= DUAL_TOL)
        if not keep.any():
            scale = np.divide(s, r, out=np.zeros_like(s), where=r > 0.0)
            return u * scale.reshape(u.shape[:-1] + (1,))
        live[live] = keep
        s[live] -= res[keep] / (1.0 - q[keep] - a[keep] ** 2)
    raise OutsideMomentDomain("Newton did not converge; u near/outside boundary")


def psi_s(model: MicroModel, u: np.ndarray) -> np.ndarray:
    """Singular potential via duality: psi_s(u) = b.u - lnZ(b) at b = Lambda(u)."""
    u = np.asarray(u, dtype=float)
    return psi_s_at_dual(model, u, dual_map(model, u))


def psi_s_at_dual(model: MicroModel, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """psi_s(u) = b.u - lnZ(b) given the dual b = Lambda(u)."""
    return np.einsum("...a,...a->...", b, u) - log_partition(model, b)


def minimal_distribution(model: MicroModel, u: np.ndarray) -> np.ndarray:
    """Density (w.r.t. the probability measure) of the entropy minimiser with moment u."""
    b = dual_map(model, u)
    a = model.sigma @ b
    return np.exp(a - log_partition(model, b))


def psi_s_hessian(model: MicroModel, u: np.ndarray) -> np.ndarray:
    """Hessian of psi_s at u: the inverse of the lnZ covariance at b = Lambda(u)."""
    b = dual_map(model, u)
    return np.linalg.inv(covariance(model, b))


@dataclass(frozen=True)
class VacuumManifold:
    """Descriptor of the zero set of the bulk potential."""

    s0: float
    direction: np.ndarray  # representative unit direction of the orbit
    c0: float
    transverse_curvature: float
    degenerate: bool


@dataclass(frozen=True)
class BulkPotential:
    """psi_b(u) = psi_s(u) - (1/2) (intK u).u + c0, normalised to inf psi_b = 0."""

    model: MicroModel
    intK: np.ndarray  # (m, m) symmetric
    c0: float
    manifold: VacuumManifold


def representative_direction(model: MicroModel) -> np.ndarray:
    """Unit direction of a uniaxial/vacuum state used for radial sweeps."""
    if model.name == "s1":
        return np.array([1.0, 0.0])
    e = q_tensor_coords(np.array([0.0, 0.0, 1.0]))
    return e / np.linalg.norm(e)


def _radial_bulk_derivative(model, e, kappa, s):
    """d/ds [psi_s(s e) - kappa s^2/2] = b(s e).e - kappa s, at one radius or a grid of them."""
    return dual_map(model, np.multiply.outer(s, e)) @ e - kappa * s


def compute_c0_and_NN(model: MicroModel, intK: np.ndarray) -> tuple[float, float, VacuumManifold]:
    """Normalising constant c0 and the vacuum orbit N = s0 O of the bulk potential.

    One ray: the radial minimum s0 of psi_s(s e) - kappa s^2 / 2, kappa =
    e.intK e, along the representative uniaxial direction e, with c0 minus
    that minimum.  For equivariant intK = kappa Id every uniaxial ray gives
    the same minimum.  When a lattice splits intK (E/T2 for m = 5) other
    directions can go lower; no other direction is searched.
    """
    intK = np.asarray(intK, dtype=float)
    e = representative_direction(model)
    s0, raw_min = _radial_ray_minimum(model, e, float(e @ intK @ e))
    c0 = -raw_min
    # transverse (radial) curvature of psi_b on the orbit
    curv = float(e @ (psi_s_hessian(model, s0 * e[None])[0] - intK) @ e)
    manifold = VacuumManifold(s0, e, c0, curv, curv < DEGENERACY_TOL)
    return c0, s0, manifold


def _bracketed_root(f, a, b, fa, fb, xtol):
    """Root of f in [a, b], given f(a) = fa and f(b) = fb of opposite signs, by the
    Illinois variant of regula falsi (Dowell & Jarratt 1971, BIT 11).

    Each secant point stays inside the bracket.  When one end survives two steps
    in a row its value is halved, so the next point lands past the root and both
    ends close in; the loop stops once the bracket is narrower than xtol.
    """
    c, side = a, 0
    while abs(b - a) > xtol:
        c = float((a * fb - b * fa) / (fb - fa))
        fc = float(f(c))
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fb < 0.0):
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
    return c


def _radial_ray_minimum(model, e, kappa):
    """Minimise psi_s(s e) - kappa s^2/2 over s in [0, sigma_max)."""
    # back off from the orbit-boundary until the dual Newton solve converges;
    # psi_s blows up there, so the minimum cannot hide beyond this point
    smax = 0.995 * model.sigma_max
    for _ in range(60):
        try:
            dual_map(model, smax * e)
            break
        except OutsideMomentDomain:
            smax *= 0.97
    grid = np.linspace(0.0, smax, 400)
    d = _radial_bulk_derivative(model, e, kappa, grid[1:])  # one batched dual solve
    if d[-1] < 0:
        raise OutsideMomentDomain("bulk minimum beyond the resolvable radius")
    crit = [0.0]
    for a, bnd, d_a, d_b in zip(grid[1:-1], grid[2:], d[:-1], d[1:]):
        if d_a == 0.0:
            crit.append(a)
        elif d_a * d_b < 0:
            crit.append(_bracketed_root(
                lambda s: _radial_bulk_derivative(model, e, kappa, s), a, bnd, d_a, d_b, xtol=1e-12))

    def raw(s):
        if s == 0.0:
            return 0.0
        return float(psi_s(model, s * e)) - 0.5 * kappa * s * s

    vals = [raw(s) for s in crit]
    i = int(np.argmin(vals))
    return crit[i], vals[i]


def make_bulk_potential(model: MicroModel, intK: np.ndarray) -> BulkPotential:
    c0, _, manifold = compute_c0_and_NN(model, intK)
    return BulkPotential(model, np.asarray(intK, dtype=float), c0, manifold)


def psi_b(bulk: BulkPotential, u: np.ndarray) -> np.ndarray:
    """Bulk potential; nonnegative on the moment set and zero on the vacuum orbit."""
    u = np.asarray(u, dtype=float)
    return psi_b_at_dual(bulk, u, dual_map(bulk.model, u))


def psi_b_at_dual(bulk: BulkPotential, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """psi_b(u) = psi_s(u) - (1/2) (intK u).u + c0 given the dual b = Lambda(u)."""
    quad = 0.5 * np.einsum("...a,ab,...b->...", u, bulk.intK, u)
    return psi_s_at_dual(bulk.model, u, b) - quad + bulk.c0


@dataclass(frozen=True)
class HessianReport:
    c_est: float  # min over sampled moment set of lambda_min(Hess psi_s)
    cov_norm_max: float  # max operator norm of Hess lnZ over the b-sample
    transverse_curvature: float
    inverse_identity_error: float  # max |Hess psi_s . Hess lnZ - Id|


def hessian_diagnostics(model: MicroModel, bulk: BulkPotential) -> HessianReport:
    """Sampled curvature diagnostics for psi_s and psi_b."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((HESSIAN_SAMPLES, model.m))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = HESSIAN_RADIUS * model.sigma_max * rng.random(HESSIAN_SAMPLES) ** (1.0 / model.m)
    u = v * r[:, None]
    b = dual_map(model, u)
    cov = covariance(model, b)
    hess = np.linalg.inv(cov)
    c_est = float(np.linalg.eigvalsh(hess)[:, 0].min())
    cov_norm = float(np.linalg.eigvalsh(cov)[:, -1].max())
    ident = np.einsum("nab,nbc->nac", hess, cov) - np.eye(model.m)
    err = float(np.abs(ident).max())
    return HessianReport(c_est, cov_norm, bulk.manifold.transverse_curvature, err)


def check_nondegenerate(bulk: BulkPotential) -> None:
    """Raise DegenerateMinimum if the vacuum orbit fails the curvature condition."""
    if bulk.manifold.degenerate:
        raise DegenerateMinimum(
            f"transverse curvature {bulk.manifold.transverse_curvature:.3e} below tolerance"
        )
