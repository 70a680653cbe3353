"""Microscopic models and the singular / bulk potentials.

The microscopic state space is a compact manifold with a probability
quadrature and an order-parameter map sigma into R^m.  The singular
potential psi_s(u) is the minimum relative entropy over densities with
prescribed sigma-moment u; it is evaluated through its convex dual, the
log-partition function lnZ(b), with Lambda = grad psi_s and
Lambda^{-1} = grad lnZ forming a Legendre pair.

mean_field gives Lambda^{-1}(b) and lnZ(b) together, with one branch per
model, and lambda_inverse and log_partition are its two items.  The circle
model "s1" (sigma = (cos 2theta, sin 2theta) under the uniform measure) has the
closed form lnZ(b) = log I0(|b|), so mean_field takes the Bessel ratio and log
I0 of one |b|, as fitted piecewise polynomials, and the dual map is a Halley
iteration.  The sphere model "s2" carries an OctantFold: lnZ is rotation
invariant, so each cell is taken to the eigenframe of its traceless 3x3
matrix, where the sum over the nodes folds onto the nodes of one octant and
the dual map is a Newton solve in two unknowns (Ball & Majumdar 2010, Mol.
Cryst. Liq. Cryst. 525); mean_field takes one eigenframe and one folded sum.
Every other model sums over its quadrature nodes, where one max-shifted
exponential gives the tilted density and lnZ; that path is also the reference
for s1 and s2 (a MicroModel with their nodes under another name takes it).
The Hessian of lnZ, covariance, is that node sum on every model (one dual per
bulk potential, and the samples of hessian_diagnostics).  The vacuum orbit of
the bulk potential is found along one dual ray b = t e from mean_field alone.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import OutsideMomentDomain

# Dual-variable cap: |b| beyond this is treated as "u outside or at the
# boundary of the moment set" (psi_s = +infinity in the continuum model).
B_CAP = 50.0
# residual at which dual_map stops a cell, and its step budget
DUAL_TOL, DUAL_MAX_ITER = 1e-12, 80
# transverse curvature of psi_b below which the vacuum orbit counts as degenerate
DEGENERACY_TOL = 1e-6
# hessian_diagnostics: seeded duals in the ball where s1's |Lambda^{-1}(b)| = A(|b|) <= 0.9
HESSIAN_SAMPLES, HESSIAN_DUAL_RADIUS = 200, 5.304689062957715
# relative round-off allowed in intK's cubic block form and in its E/T2 tie
CUBIC_TOL = 1e-12


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
# the basis as rows of flattened matrices: coordinates y -> y @ _SYM0_FLAT, and back by its transpose
_SYM0_FLAT = _SYM0_BASIS.reshape(5, 9)
# diagonals of E_0 and E_1 as columns: a traceless diagonal matrix with
# eigenvalues lam has coordinates (lam @ _SYM0_DIAG, 0, 0, 0)
_SYM0_DIAG = np.stack([np.diag(_SYM0_BASIS[0]), np.diag(_SYM0_BASIS[1])], axis=1)


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
class OctantFold:
    """A sphere rule folded onto the nodes p > 0 of its open positive octant.

    In a frame where b = d_0 E_0 + d_1 E_1 is diagonal, b . sigma(p) and the
    squares of the sigma_a(p) depend on p only through p_i^2, while sigma_2,
    sigma_3, sigma_4 and every product sigma_a sigma_b with a != b and b > 1
    are odd in some p_i.  On a rule that is symmetric under each p_i -> -p_i,
    weights included, and has no node on a coordinate plane, a sum over the
    nodes of an even integrand is 8 times its sum over the octant, and that
    of an odd one is 0.
    """

    weights: np.ndarray  # (k,): 8 times the node weights
    # (k, 8) on the octant nodes: sigma_0, sigma_1, sigma_0^2, sigma_0 sigma_1,
    # sigma_1^2, sigma_2^2, sigma_3^2, sigma_4^2: every average the frame
    # needs, as one matmul
    moments: np.ndarray


@dataclass(frozen=True)
class MicroModel:
    """Quadrature description of the microscopic manifold."""

    name: str  # "s1" or "s2"
    m: int
    sigma: np.ndarray  # (n_nodes, m) order-parameter samples
    weights: np.ndarray  # (n_nodes,), positive, sums to 1
    sigma_max: float
    # s2: the nodes folded onto one octant, for sums in each cell's eigenframe
    fold: OctantFold | None = dc_field(default=None, repr=False, compare=False)
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
    """Nematic: M = S^2 on the sphere_rule nodes (default 1152), uniform measure, m = 5.

    The rule is folded onto its open positive octant (default 144 nodes).  That
    needs an even n_theta (no node at cos(theta) = 0) and n_phi divisible by 4
    (phi -> pi - phi maps the nodes onto themselves and none lies at phi = pi/2).
    """
    if n_theta % 2 or n_phi % 4:
        raise ValueError("the octant fold needs an even n_theta and n_phi divisible by 4")
    p, w = sphere_rule(n_theta, n_phi)
    sigma, w = q_tensor_coords(p), w / (2.0 * n_phi)
    octant = np.all(p > 0.0, axis=1)
    s = sigma[octant]
    moments = np.column_stack([s[:, :2], s[:, 0] ** 2, s[:, 0] * s[:, 1], s[:, 1] ** 2, s[:, 2:] ** 2])
    fold = OctantFold(8.0 * w[octant], moments)
    return MicroModel("s2", 5, sigma, w, 1.0, fold)


MODELS = {"s1": make_s1_model, "s2": make_s2_model}  # the micro-models by name


def _tilted_density(model: MicroModel, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature weights of the tilted density w_i exp(b . sigma_i) / Z(b), shape (..., n),
    and lnZ(b), shape (...), from one max-shifted exponential, for b of shape (..., m)."""
    a = np.asarray(b, dtype=float) @ model.sigma.T  # (..., n)
    amax = a.max(axis=-1, keepdims=True)
    e = np.exp(a - amax) * model.weights
    z = e.sum(axis=-1, keepdims=True)
    return e / z, (amax + np.log(z))[..., 0]


def _covariance_of(model: MicroModel, f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Covariance of sigma under node weights f with mean u: sum_i f_i sigma_i sigma_i^T - u u^T."""
    m = model.m
    second = (f @ model.sigma2).reshape(f.shape[:-1] + (m, m))
    return second - u[..., :, None] * u[..., None, :]


# s1's Bessel functions as polynomials of degree 16 on nine intervals of s >= 0,
# cut at _BESSEL_CUTS: in the variable s on [0, 8] and in 1/s from 8 on, mapped to
# t in [-1, 1] by (v - centre) / half.  Each row is one interval's Chebyshev
# interpolant at 48 points of 40-digit mpmath values, truncated to degree 16 (the
# dropped terms sum to below 3e-17 of the function on every interval) and written
# in powers of t, whose coefficients stay below 1 in size, for Horner's rule.
_BESSEL_CUTS = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0])
_BESSEL_HEAD = 8.0  # the variable is s below, 1/s above
_BESSEL_CENTRE = np.array([0.5, 1.5, 2.5, 3.5, 5.0, 7.0, 3 / 32, 3 / 64, 1 / 64])
_BESSEL_HALF = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1 / 32, 1 / 64, 1 / 64])
# A(s)/s on [0, 8] and A(s) = I1(s)/I0(s) above: A and A/s within 2.2e-16 and
# 1.9e-16 of themselves over [1e-6, 1e6]
_BESSEL_RATIO = np.array([
    [0.4849992251616039, -0.02880451242504688, -0.012106751912442534, 0.0021065231398709754,
     0.0003060467862009952, -0.00011174702622219047, -3.2917094978103986e-06,
     4.8943948458042865e-06, -2.70064897499794e-07, -1.8034625756349526e-07,
     2.6141838191653375e-08, 5.307438933123975e-09, -1.5223212977824898e-09,
     -9.549799227343287e-11, 7.017810354915503e-11, -8.638377493765377e-13,
     -2.3947877671987293e-12],
    [0.3974221592208605, -0.05007305229373522, 0.00047553840794133654, 0.0013133637072100857,
     -0.0002655291183821051, 9.84731675795592e-06, 6.404253701125267e-06,
     -1.509243864029212e-06, 8.298978344162274e-08, 3.150136762400617e-08,
     -8.469822341692075e-09, 6.013343328623741e-10, 1.513993630512849e-10,
     -4.7136564273571885e-11, 4.0299037751229145e-12, 8.005501005593888e-13,
     -2.4194466856660965e-13],
    [0.30599869903552396, -0.03944348437850106, 0.003511312992253693, -1.7344757620683093e-05,
     -6.713161457164392e-05, 1.4672432023521173e-05, -1.6932155966957048e-06,
     4.75421618869223e-08, 2.5515949284799193e-08, -6.308076644163007e-09,
     7.803376715798399e-10, -3.093690678853069e-11, -9.793948818946662e-12,
     2.6858847116726103e-12, -3.539335032423745e-13, 1.275712334193564e-14,
     4.355668976543856e-15],
    [0.2403153705859533, -0.026869476940748774, 0.002619885263582709, -0.0001898408581851723,
     3.07514466140595e-06, 2.034689924731299e-06, -4.501735694727678e-07,
     6.027949704728065e-08, -5.4841732988601785e-09, 2.2449598193292883e-10,
     3.2966857011247425e-11, -9.528490943384283e-12, 1.3908414722989518e-12,
     -1.3785540515260994e-13, 7.445753784771894e-15, 6.019727218376715e-16,
     -2.0850144269014422e-16],
    [0.17867662740881704, -0.03109733687447296, 0.005185700250786024, -0.0008030048865395323,
     0.00010815151851271049, -1.0453886532801921e-05, -8.019863956151925e-08,
     3.818116523181605e-07, -1.2522245179386453e-07, 2.871308051489074e-08,
     -5.273107538468041e-09, 7.744559579751829e-10, -7.904462655201358e-11,
     6.455106327545005e-13, 2.4034505861191227e-12, -9.482252009767248e-13,
     2.0271857964642893e-13],
    [0.13221888725630745, -0.017292521104303696, 0.0022284913772110965,
     -0.00028117901146936696, 3.435731578259814e-05, -3.9865016592439405e-06,
     4.22687110814277e-07, -3.7322202732619244e-08, 1.8403438012460533e-09,
     2.3391703765219466e-10, -9.797423865068275e-11, 2.1331255351703735e-11,
     -3.706544096253952e-12, 5.580305353959583e-13, -7.459896899408514e-14,
     9.022931602700223e-15, -8.660538965954438e-16],
    [0.9519043064175391, -0.01648768958968738, -0.0001718666169187612, -8.319705522661725e-06,
     -8.009479346689322e-07, -1.2470351259787456e-07, -1.649353658035522e-08,
     2.871355766345751e-09, 2.2863225368976167e-09, 2.0272231409507123e-10,
     -1.8244037095342754e-10, -2.6204402995450548e-11, 1.7397812760397252e-11,
     1.4828481885757303e-12, -1.7518188420985232e-12, 5.451035060309863e-15,
     1.2203564471720013e-13],
    [0.9762739192415744, -0.008009917470201132, -3.556328285992109e-05, -6.616807013784904e-07,
     -2.0422387228332015e-08, -8.992819267374083e-10, -5.3310423712594e-11,
     -4.166199270812594e-12, -4.3203005118036286e-13, -6.088807748041047e-14,
     -1.1231424048848243e-14, -2.1413296496627845e-15, -1.7751609957671561e-16,
     1.2513116642501282e-16, 6.230925727392578e-17, 3.782034397269252e-18,
     -3.2279811159530722e-18],
    [0.9921564935488112, -0.007875014222565941, -3.20219676260639e-05, -5.275198875867756e-07,
     -1.3790840578441372e-08, -4.878686967187916e-10, -2.1775172155198825e-11,
     -1.1786318734031576e-12, -7.540089049057078e-14, -5.597742796350517e-15,
     -4.756675730259207e-16, -4.577129034546469e-17, -4.9443648251247335e-18,
     -5.923681173116165e-19, -7.877716671218538e-20, -1.3283350541555611e-20,
     -2.2271541888813012e-21],
]).T
# log I0(s)/s^2 on [0, 8] and log(e^-s I0(s) sqrt(2 pi s)) above, which tends to
# 0 as 1/(8s): log I0 within 2.9e-16 of itself over [1e-6, 1e6]
_LOG_I0 = np.array([
    [0.24619887674192523, -0.0073985283222465425, -0.003304463729153604, 0.0003703676680574213,
     6.36711998955218e-05, -1.519608263620895e-05, -8.957412912243147e-07,
     5.534601300549378e-07, -1.0843304586348924e-08, -1.7959131959801975e-08,
     1.720449266269358e-09, 4.997475940159594e-10, -9.914194626094919e-11,
     -1.0409413146740005e-11, 4.3533788306227985e-12, 7.837882219153543e-14,
     -1.4269769186189648e-13],
    [0.22168327454027387, -0.015314796619895758, -0.0006881104056746557,
     0.00035866444784888495, -3.9996544336203365e-05, -1.7033234910005307e-06,
     1.209476733120845e-06, -1.5578857917897343e-07, -4.46444407440589e-09,
     4.727193316445869e-09, -6.832580625819134e-10, -8.203480707756273e-12,
     1.9665430614686738e-11, -3.1777004756219796e-12, 1.3005500448768762e-14,
     8.512928316933954e-14, -1.3574733063740026e-14],
    [0.1905341873913645, -0.015013935149441, 0.0005598321069821943, 8.479897095499339e-05,
     -2.206698061978189e-05, 2.610810765896019e-06, -1.201081112632677e-07,
     -2.0924305991327644e-08, 5.8965229144812325e-09, -7.433170343268669e-10,
     3.7368173581812575e-11, 6.034342099105116e-12, -1.8230073441094425e-12,
     2.4257415111433266e-13, -1.3640274980187079e-14, -2.153502982369106e-15,
     6.245537597087582e-16],
    [0.16314532013133667, -0.012282181382388577, 0.0007126476576012112,
     -1.0985969848673108e-05, -4.818250319350254e-06, 9.138470450712612e-07,
     -1.0386284263722694e-07, 7.769983096782998e-09, -1.723276936554599e-10,
     -5.969677563653918e-11, 1.2588008139618954e-11, -1.5336114109851966e-12,
     1.2390926440862566e-13, -3.795243536581721e-15, -8.252030448161832e-16,
     2.0594402638350055e-16, -2.602963968184847e-17],
    [0.13218727103290134, -0.017139582931397127, 0.002032141191971841, -0.0001961909678067725,
     8.897497624730562e-06, 2.1906613108037814e-06, -8.596171903933574e-07,
     1.941925380809161e-07, -3.414802931863696e-08, 4.805734642367815e-09,
     -4.830009531354071e-10, 9.498203636853823e-12, 1.0850768583716463e-11,
     -3.5433167358686666e-12, 7.678185655704268e-13, -1.3737989182249757e-13,
     1.751170514598103e-14],
    [0.1046427125527112, -0.01100950540701642, 0.0011239996511961119, -0.00010797653464635029,
     9.239416491513777e-06, -6.022623761818866e-07, 5.460356524158116e-09,
     7.734780766903856e-09, -1.9095576706811914e-09, 3.323162694741505e-10,
     -4.8879459012134366e-11, 6.345051189225432e-12, -7.280252427811238e-13,
     7.141707619730168e-14, -5.2391184469201215e-15, 5.334631490696679e-18,
     8.028278130193689e-17],
    [0.012331601981584435, 0.004340243848749931, 8.69224320831438e-05, 4.3118039872957756e-06,
     4.103677995826582e-07, 6.32465479362363e-08, 8.3637921011367e-09, -1.421193619608945e-09,
     -1.144109197077533e-09, -1.0247575156138154e-10, 9.109284403931802e-11,
     1.3168018604902562e-11, -8.687404799473363e-12, -7.465675485361521e-13,
     8.752852986405342e-13, -2.3722448757094325e-15, -6.100834945091956e-14],
    [0.006003954067356118, 0.0020521298376930406, 1.788550370634315e-05,
     3.4423040243673605e-07, 1.0566950879862123e-08, 4.607723151623685e-10,
     2.7093895316224605e-11, 2.1051642243788406e-12, 2.1745035916764677e-13,
     3.056793629562248e-14, 5.630438333089341e-15, 1.0730248753759783e-15,
     8.916524976161462e-17, -6.253327725736436e-17, -3.1172227811383844e-17,
     -1.898212452099864e-18, 1.6133532297745448e-18],
    [0.0019686383987243556, 0.0019844128760834606, 1.6042246026640693e-05,
     2.7468929268876453e-07, 7.161249034915644e-09, 2.511853349257384e-10,
     1.1124516847798108e-11, 5.985915904917155e-13, 3.8132064935580885e-14,
     2.8225339978760762e-15, 2.3934862760934365e-16, 2.299787252008527e-17,
     2.4817171807309175e-18, 2.9710275902353174e-19, 3.948843997329527e-20,
     6.65503610600395e-21, 1.1154378081203234e-21],
]).T


def _bessel_fit(table: np.ndarray, s: np.ndarray) -> np.ndarray:
    """table's polynomial on each cell's interval at s >= 0 (any shape; NaN stays NaN)."""
    s = np.asarray(s, dtype=float)
    k = np.clip(np.searchsorted(_BESSEL_CUTS, s, side="right") - 1, 0, len(_BESSEL_CUTS) - 1)
    v = np.where(s < _BESSEL_HEAD, s, 1.0 / np.maximum(s, _BESSEL_HEAD))
    t = (v - _BESSEL_CENTRE[k]) / _BESSEL_HALF[k]
    c = table[:, k]
    out = c[-1]
    for ck in c[-2::-1]:
        out = out * t + ck
    return out


def _bessel_ratio(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A(s) = I1(s)/I0(s) = d/ds log I0(s), and A(s)/s with its limit 1/2 at s = 0."""
    fit = _bessel_fit(_BESSEL_RATIO, s)
    head = s < _BESSEL_HEAD
    return np.where(head, s * fit, fit), np.where(head, fit, fit / np.maximum(s, _BESSEL_HEAD))


def _log_i0(s: np.ndarray) -> np.ndarray:
    """log I0(s) for s >= 0."""
    fit = _bessel_fit(_LOG_I0, s)
    tail = s - 0.5 * np.log(2.0 * np.pi * np.maximum(s, _BESSEL_HEAD))
    return np.where(s < _BESSEL_HEAD, s * s * fit, tail + fit)


# s1: |b| > B_CAP exactly when |u| = A(|b|) > A(B_CAP), since A increases
S1_R_CAP = float(_bessel_ratio(B_CAP)[0])


def _eigenframe(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenframes of the traceless matrices Y = sum_a y_a E_a, for y of shape (..., 5).

    Returns, over the n cells of y flattened to one axis, the diagonal
    coordinates d (n, 2), with R^T Y R = d_0 E_0 + d_1 E_1, and the
    eigenvectors R (n, 3, 3) in the columns, eigenvalues ascending.  A cell
    with a non-finite entry gets d = nan (eigh would raise on it).
    """
    mat = (np.reshape(y, (-1, 5)) @ _SYM0_FLAT).reshape(-1, 3, 3)
    bad = ~np.isfinite(mat).all(axis=(1, 2))
    lam, R = np.linalg.eigh(np.where(bad[:, None, None], 0.0, mat))
    d = lam @ _SYM0_DIAG
    d[bad] = np.nan
    return d, R


def _from_eigenframe(d: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Coordinates y of R (d_0 E_0 + d_1 E_1) R^T: the inverse of _eigenframe."""
    mat = (R * (d @ _SYM0_DIAG.T)[:, None, :]) @ np.swapaxes(R, 1, 2)
    return mat.reshape(-1, 9) @ _SYM0_FLAT.T


def _folded_average(fold: OctantFold, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lnZ and the tilted-density averages of fold.moments, (n,) and (n, 8), at
    eigenframe coordinates d of shape (n, 2); max-shifted, in place on one (n, k) array."""
    e = d @ fold.moments[:, :2].T
    amax = e.max(axis=1, keepdims=True)
    np.subtract(e, amax, out=e)
    np.exp(e, out=e)
    e *= fold.weights
    z = e.sum(axis=1)
    return amax[:, 0] + np.log(z), (e @ fold.moments) / z[:, None]


def mean_field(model: MicroModel, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, lnZ(b)) with u = grad_b lnZ(b) = Lambda^{-1}(b), shapes (..., m) and (...).

    On s1 both come from |b|: u = A(|b|) b/|b| and lnZ = log I0(|b|).  With an
    octant fold one eigenframe and one folded sum give both: lnZ is rotation
    invariant, and u shares b's eigenframe, the folded mean there rotated
    back.  Elsewhere one max-shifted exponential over the nodes gives the
    tilted density, whose mean is u, and lnZ.
    """
    b = np.asarray(b, dtype=float)
    if model.name == "s1":
        s = np.linalg.norm(b, axis=-1)
        return _bessel_ratio(s)[1][..., None] * b, _log_i0(s)
    if model.fold is not None:
        d, R = _eigenframe(b)
        lnz, avg = _folded_average(model.fold, d)
        return _from_eigenframe(avg[:, :2], R).reshape(b.shape), lnz.reshape(b.shape[:-1])
    f, lnz = _tilted_density(model, b)
    return f @ model.sigma, lnz


def log_partition(model: MicroModel, b: np.ndarray) -> np.ndarray:
    """lnZ(b) = ln sum_i w_i exp(b . sigma_i), shape (...): mean_field's second item."""
    return mean_field(model, b)[1]


def lambda_inverse(model: MicroModel, b: np.ndarray) -> np.ndarray:
    """u = grad_b lnZ(b), the mean-field map, the inverse of Lambda: mean_field's first item."""
    return mean_field(model, b)[0]


def covariance(model: MicroModel, b: np.ndarray) -> np.ndarray:
    """Hessian of lnZ: the sigma-covariance under the tilted density, shape (..., m, m),
    as sums over the model's nodes."""
    f = _tilted_density(model, b)[0]
    return _covariance_of(model, f, f @ model.sigma)


def dual_map(model: MicroModel, u: np.ndarray) -> np.ndarray:
    """Lambda(u): the dual variable b with grad lnZ(b) = u, by Newton's or Halley's method.

    Batched over leading axes.  A cell stops updating once its residual
    |lambda_inverse(b) - u| is within DUAL_TOL, so each cell follows the
    sequence of a one-cell call.  Raises OutsideMomentDomain if |u| >=
    sigma_max, if the iteration does not converge in DUAL_MAX_ITER steps, or if
    |b| exceeds B_CAP anywhere, which is the finite-precision image of psi_s
    blowing up towards the boundary of the moment set.

    On s1, b = s u/|u| with A(s) = |u|, by a 1-D Halley iteration per cell
    (_s1_dual_map).  With an octant fold b shares u's eigenframe, and the damped
    Newton below runs on b's two diagonal coordinates there (_folded_dual_map).
    Elsewhere a damped Newton on b starts from zero, and each step takes one
    exponential: the tilted density of the live cells gives both the residual
    and, on the cells still above DUAL_TOL, the covariance.
    """
    u = np.asarray(u, dtype=float)
    r = np.linalg.norm(u, axis=-1)
    if np.any(r >= model.sigma_max):
        raise OutsideMomentDomain("|u| >= sigma_max")
    if model.name == "s1":
        return _s1_dual_map(u, r)
    if model.fold is not None:
        return _folded_dual_map(model.fold, u)
    b = np.zeros_like(u)
    live = np.ones(u.shape[:-1], dtype=bool)  # cells not yet within DUAL_TOL (a NaN stays live)
    eye = np.eye(model.m)
    for _ in range(DUAL_MAX_ITER):
        f = _tilted_density(model, b[live])[0]
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


def _folded_dual_map(fold: OctantFold, u: np.ndarray) -> np.ndarray:
    """The damped Newton of dual_map in u's eigenframe, on the diagonal coordinates d of b.

    The residual, the step and |b| = |d| are the same in every frame, so
    DUAL_TOL, the damping and B_CAP act as on the full coordinates.  The
    covariance is the 2x2 block of the folded second moments, and its Tikhonov
    guard the 2x2 block of the full one.
    """
    target, R = _eigenframe(u)
    d = np.zeros_like(target)
    live = np.ones(len(d), dtype=bool)  # cells not yet within DUAL_TOL (a NaN stays live)
    for _ in range(DUAL_MAX_ITER):
        avg = _folded_average(fold, d[live])[1]
        r = avg[:, :2] - target[live]
        keep = ~(np.linalg.norm(r, axis=-1) <= DUAL_TOL)
        if not keep.any():
            return _from_eigenframe(d, R).reshape(u.shape)
        live[live] = keep
        (m0, m1, s00, s01, s11), (r0, r1) = avg[keep, :5].T, r[keep].T
        c00, c01, c11 = s00 - m0 * m0 + 1e-14, s01 - m0 * m1, s11 - m1 * m1 + 1e-14
        det = c00 * c11 - c01 * c01
        step = np.stack([c11 * r0 - c01 * r1, c00 * r1 - c01 * r0], axis=-1) / det[:, None]
        sn = np.linalg.norm(step, axis=-1, keepdims=True)
        d[live] -= step * np.minimum(1.0, 2.0 / np.maximum(sn, 1e-300))
        if np.linalg.norm(d[live], axis=-1).max() > B_CAP:
            raise OutsideMomentDomain("dual variable exceeded cap; u near/outside boundary")
    raise OutsideMomentDomain("Newton did not converge; u near/outside boundary")


def _s1_dual_map(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """s1 dual map b = s u/r with A(s) = r = |u|, one 1-D Halley iteration per cell.

    Halley's step on f = A - r is Newton's step -f/A' divided by 1 - L, L =
    f A''/(2 A'^2), and costs no Bessel evaluation beyond Newton's: the Riccati
    identity A' = 1 - A/s - A^2 gives A'' = A/s^2 - A'/s - 2 A A'.  The start s
    = r (2 - r^2)/(1 - r^2) lies at most about 7 % above the root.  A is
    concave and increasing on s >= 0, so there f > 0 > A'' and L < 0: the
    first step has Newton's sign and is shorter than Newton's, which lands at
    or left of the root.  On a grid of 2,400 r over (0, S1_R_CAP], L of the
    first step stayed in (-0.075, 0) and that step landed within 2.4e-5 of
    the root (relative, on either side), from where the convergence is cubic:
    the second step is within 2e-14, so most cells take 3 evaluations (Newton
    took 5 at r = 0.83).  The loop stops on the same residual as before.
    |A(s) - r| is the vector residual |lambda_inverse(b) - u|.  The B_CAP test
    runs before the loop on r, through its image A(B_CAP); that also keeps the
    start away from r -> 1, where A' vanishes in floating point.
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
        a, q, res, sk = a[keep], q[keep], res[keep], s[live]
        d1 = 1.0 - q - a * a
        d2 = (2.0 * q + a * a - 1.0) / sk - 2.0 * a * d1  # A/s^2 - A'/s - 2 A A'
        s[live] = sk - res / (d1 - 0.5 * res * d2 / d1)
    raise OutsideMomentDomain("Halley did not converge; u near/outside boundary")


def psi_s(model: MicroModel, u: np.ndarray) -> np.ndarray:
    """Singular potential via duality: psi_s(u) = b.u - lnZ(b) at b = Lambda(u)."""
    u = np.asarray(u, dtype=float)
    return psi_s_at_dual(model, u, dual_map(model, u))


def psi_s_at_dual(model: MicroModel, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """psi_s(u) = b.u - lnZ(b) given the dual b = Lambda(u)."""
    return np.einsum("...a,...a->...", b, u) - log_partition(model, b)


@dataclass(frozen=True)
class VacuumManifold:
    """Descriptor of the zero set of the bulk potential."""

    s0: float
    direction: np.ndarray  # representative unit direction of the orbit
    transverse_curvature: float
    degenerate: bool
    intK_split: float  # (k_T - k_E) / kappa: a lattice's E/T2 split of intK; 0.0 for m = 2


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


# the uniaxial ray along [111] on m = 5: pure T2, where [001] is pure E
_RAY_111 = q_tensor_coords(np.full(3, 1.0 / np.sqrt(3.0)))


def compute_c0_and_NN(model: MicroModel, intK: np.ndarray) -> tuple[float, float, VacuumManifold]:
    """Normalising constant c0 and the vacuum orbit N = s0 O of the bulk potential.

    psi_s is rotation invariant, so the radial minimum of psi_s(s e) - kappa
    s^2 / 2 along a uniaxial ray e depends on e only through kappa = e.intK e,
    and the largest kappa goes lowest; c0 is minus that minimum.  On m = 5 a
    lattice leaves intK = diag(k_E, k_E, k_T, k_T, k_T) (else ValueError), and
    kappa is extremal at [001] (k_E, also taken on a tie to CUBIC_TOL) or
    [111] (k_T).  The transverse curvature is 1/(e.C(t0 e) e) - kappa at the
    dual t0 e of s0 e: by axial symmetry e is an eigenvector of the covariance.
    """
    intK = np.asarray(intK, dtype=float)
    e = representative_direction(model)
    k_E = k_T = kappa = float(e @ intK @ e)
    if model.m == 5:
        k_T = float(_RAY_111 @ intK @ _RAY_111)
        if np.abs(intK - np.diag([k_E, k_E, k_T, k_T, k_T])).max() > CUBIC_TOL * np.abs(intK).max():
            raise ValueError("intK is not of the cubic form diag(k_E, k_E, k_T, k_T, k_T)")
        if k_T - k_E > CUBIC_TOL * abs(k_E):
            e, kappa = _RAY_111, k_T
    t0, s0, raw_min = _radial_ray_minimum(model, e, kappa)
    curv = float(1.0 / (e @ covariance(model, t0 * e) @ e) - kappa)
    split = (k_T - k_E) / kappa if k_T != k_E else 0.0
    return -raw_min, s0, VacuumManifold(s0, e, curv, curv < DEGENERACY_TOL, split)


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
    """(t0, s0, min) of psi_s(s e) - kappa s^2/2 along the dual ray b = t e, t in [0, B_CAP].

    A uniaxial ray is its own dual ray, Lambda^{-1}(t e) = s(t) e, and psi_s(s e)
    = t s - lnZ(t e) with slope t in s, so the scan and the polish need no dual
    solve: the slope has the sign of t - kappa s(t).
    """
    def slope(t):
        return t - kappa * (lambda_inverse(model, np.multiply.outer(t, e)) @ e)

    grid = np.linspace(0.0, B_CAP, 400)
    d = slope(grid[1:])
    if d[-1] < 0:
        raise OutsideMomentDomain("bulk minimum beyond the dual cap |b| = B_CAP")
    crit = [0.0]
    for a, bnd, d_a, d_b in zip(grid[1:-1], grid[2:], d[:-1], d[1:]):
        if d_a == 0.0:
            crit.append(a)
        elif d_a * d_b < 0:
            crit.append(_bracketed_root(slope, a, bnd, d_a, d_b, xtol=1e-12))
    u, lnz = mean_field(model, np.multiply.outer(crit, e))
    t, s = np.array(crit), u @ e
    vals = t * s - lnz - 0.5 * kappa * s * s
    s[0] = vals[0] = 0.0  # Lambda^{-1}(0) and lnZ(0) on the fold are round-off away from 0
    i = int(np.argmin(vals))
    return float(t[i]), float(s[i]), float(vals[i])


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
    inverse_identity_error: float  # max |Hess psi_s . Hess lnZ - Id|


def hessian_diagnostics(model: MicroModel) -> HessianReport:
    """Sampled curvature of psi_s: at u = Lambda^{-1}(b), Hess psi_s = C(b)^{-1}, with C =
    Hess lnZ taken at seeded duals b directly, so every sample is admissible."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal((HESSIAN_SAMPLES, model.m))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = HESSIAN_DUAL_RADIUS * rng.random(HESSIAN_SAMPLES) ** (1.0 / model.m)
    cov = covariance(model, v * r[:, None])
    hess = np.linalg.inv(cov)
    c_est = float(np.linalg.eigvalsh(hess)[:, 0].min())
    cov_norm = float(np.linalg.eigvalsh(cov)[:, -1].max())
    ident = np.einsum("nab,nbc->nac", hess, cov) - np.eye(model.m)
    err = float(np.abs(ident).max())
    return HessianReport(c_est, cov_norm, err)
