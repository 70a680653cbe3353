"""Quantitative probes of the regularity machinery at lattice scale.

Mollifier comparisons against the non-local form, the Poincare-type
inequality on balls, Campanato mean-oscillation decay with fitted exponents,
Hoelder seminorms over sampled cell pairs, the one-step energy decay check,
and uniform-convergence tables against a limit field away from flagged cells.
All constants here are measured, not derived; the module reports ratios and
fits and leaves thresholds to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionNotMet, ResolutionMismatch
from .field import OrderField, ball_mask, convolve_stencil, local_energy, local_form
from .field import _neighbour_slices, radii_ladder, require_resolvable, require_same_grid
from .kernel import MIN_CELLS_ACROSS, SampledKernel, stencil_offsets
from .limit import ManifoldField, SingularSetReport, _central_gradient
from .potential import BulkPotential


# ---------------------------------------------------------------------------
# mollifier


def _bump(t: np.ndarray) -> np.ndarray:
    """Smooth bump on (-1, 1), zero outside, C^infinity at the edges."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


@dataclass
class Mollifier:
    """Radial annulus bump scaled to eps and sampled on the kernel stencil.

    values holds eps^-3 phi(z/eps) after exact lattice normalization
    (sum * h^3 = 1).  domination is the measured constant C with
    phi_eps + eps*|grad phi_eps| <= C * g_eps wherever the left side is
    positive (inf when the kernel vanishes there).
    """

    eps: float
    h: float
    radius_cells: int
    rho1: float
    rho2: float
    values: np.ndarray  # (2S+1,)*3
    domination: float

    @property
    def lattice_mass(self) -> float:
        return float(self.values.sum()) * self.h**3


# share of the positivity annulus width cut from each side of the mollifier support
MOLLIFIER_SHRINK = 0.1


def build_mollifier(sampled: SampledKernel) -> Mollifier:
    """Bump supported in the kernel positivity annulus, lattice-normalized.

    The support is shrunk by MOLLIFIER_SHRINK on each side so the bump
    vanishes before the annulus edges; the domination constant is measured
    against the minimum-eigenvalue samples of the kernel stencil.
    """
    rho1, rho2 = sampled.spec.annulus
    eps, h, S = sampled.eps, sampled.h, sampled.radius_cells
    if h > eps * (rho2 - rho1) / MIN_CELLS_ACROSS:
        raise ResolutionMismatch(
            f"h = {h:g} too coarse to resolve the annulus at eps = {eps:g}"
        )
    w = rho2 - rho1
    a, b = rho1 + MOLLIFIER_SHRINK * w, rho2 - MOLLIFIER_SHRINK * w
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    r = np.linalg.norm(stencil_offsets(S, h), axis=-1) / eps
    t = (r - mid) / half
    vals = _bump(t)
    mass = vals.sum() * h**3
    vals = vals / mass  # exact unit lattice mass; absorbs the eps^-3 scale

    # radial derivative of the scaled bump by the chain rule, same scale
    dt = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    dt[inside] = vals[inside] * (-2.0 * ti / (1.0 - ti**2) ** 2)
    grad = np.abs(dt) / (half * eps)

    g = sampled.g_disc()
    lhs = vals + eps * grad
    live = lhs > 1e-14 * lhs.max() if lhs.max() > 0 else np.zeros_like(lhs, dtype=bool)
    if live.any():
        with np.errstate(divide="ignore"):
            ratio = np.where(g[live] > 0, lhs[live] / np.maximum(g[live], 1e-300), np.inf)
        C = float(ratio.max())
    else:
        C = 0.0
    return Mollifier(eps, h, S, rho1, rho2, vals, C)


def mollify(moll: Mollifier, values: np.ndarray, h: float) -> np.ndarray:
    """Lattice convolution phi_eps * u (componentwise, zero extension)."""
    if abs(h - moll.h) > 1e-12:
        raise ResolutionMismatch("mollifier sampled on a different grid spacing")
    return convolve_stencil(moll.values, values) * h**3


# ---------------------------------------------------------------------------
# inequality probes


def _ratio(lhs: float, rhs: float) -> float:
    """Ratio with the 0/0 -> 0 convention for vacuously true inequalities.

    Both sides are quadratic forms evaluated in floating point, so "zero"
    means below round-off; negative round-off on the right clamps to zero.
    """
    rhs = max(rhs, 0.0)
    if lhs <= 1e-20:
        return 0.0
    return lhs / rhs if rhs > 0 else np.inf


def mollify_h1_check(
    field: OrderField,
    moll: Mollifier,
    center,
    radius: float,
    sampled: SampledKernel,
) -> tuple:
    """Dirichlet energy of the mollified field on the half ball against the form.

    lhs = int_{B_{r/2}} |grad(phi_eps * u)|^2, rhs the non-local double sum
    (1/eps^2) over B_r x B_r.  The outer ball plus the mollifier reach must
    fit in the box.
    """
    dom = field.domain
    reach = radius + field.eps * moll.rho2
    half_box = (np.array(dom.shape) / 2.0) * dom.h
    if np.any(np.abs(np.asarray(center, dtype=float)) + reach > half_box):
        raise ResolutionMismatch("outer ball plus mollifier reach leaves the box")
    v = mollify(moll, field.values, dom.h)
    inner = ball_mask(dom, center, 0.5 * radius)
    g = _central_gradient(v, dom.h, inner)
    lhs = float(np.sum(g * g)) * dom.cell_volume
    outer = ball_mask(dom, center, radius)
    rhs = 4.0 * local_form(field, outer, sampled)
    return lhs, rhs, _ratio(lhs, rhs)


def _dilate(mask: np.ndarray, k: int) -> np.ndarray:
    """mask grown k times by the 6-neighbour cross, nothing entering from outside the
    box: the cells within L1 lattice distance k of the mask."""
    out = np.asarray(mask, dtype=bool)
    for _ in range(k):
        grown = out.copy()
        for lo, hi in _neighbour_slices():
            grown[hi] |= out[lo]
            grown[lo] |= out[hi]
        out = grown
    return out


def mollify_l2_check(
    field: OrderField,
    moll: Mollifier,
    inner: np.ndarray,
    outer: np.ndarray,
    sampled: SampledKernel,
) -> tuple:
    """int_A |u - phi_eps*u|^2 against the non-local form over A' x A'.

    inner and outer are boolean masks with the mollifier reach separating
    them: inner dilated by the stencil radius must stay within outer.
    """
    dom = field.domain
    inner = np.asarray(inner, dtype=bool)
    outer = np.asarray(outer, dtype=bool)
    grown = _dilate(inner, moll.radius_cells)
    if np.any(grown & ~outer):
        raise ResolutionMismatch("inner set dilated by the mollifier reach leaves the outer set")
    v = mollify(moll, field.values, dom.h)
    diff = field.values[inner] - v[inner]
    lhs = float(np.sum(diff * diff)) * dom.cell_volume
    rhs = 4.0 * local_form(field, outer, sampled)
    return lhs, rhs, _ratio(lhs, rhs)


def _mean_oscillation(u: np.ndarray) -> float:
    """Mean square distance of the values u (one per row) from their mean."""
    return float(np.mean(np.sum((u - u.mean(axis=0)) ** 2, axis=-1)))


def poincare_check(
    field: OrderField,
    center,
    rho: float,
    sampled: SampledKernel,
    bulk: BulkPotential,
    eps1: float = 0.5,
) -> tuple:
    """Mean-square oscillation on the half ball against the scaled local energy.

    Returns (mean oscillation, rho^-1 F_eps(B_rho), ratio); requires the
    separation eps <= eps1 * rho.
    """
    dom = field.domain
    if field.eps > eps1 * rho:
        raise ResolutionMismatch(
            f"eps = {field.eps:g} too large for rho = {rho:g} (eps1 = {eps1:g})"
        )
    half = ball_mask(dom, center, 0.5 * rho) & dom.omega_mask
    if not half.any():
        return 0.0, 0.0, 0.0
    osc = _mean_oscillation(field.values[half])
    outer = ball_mask(dom, center, rho)
    scaled = local_energy(field, outer, sampled, bulk) / rho
    return osc, scaled, _ratio(osc, scaled)


# ---------------------------------------------------------------------------
# decay profiles


@dataclass
class DecayProfile:
    radii: np.ndarray  # decreasing
    mean_osc: np.ndarray
    scaled_energy: np.ndarray  # rho^-1 F_eps, or zeros when no kernel given
    mu: float  # fitted oscillation exponent (osc ~ rho^{2 mu})
    alpha: float  # fitted energy exponent (rho^-1 F ~ rho^alpha), nan if unset

    def __post_init__(self):
        if np.any(np.diff(self.radii) >= 0):
            raise ValueError("radii must be strictly decreasing")


def _loglog_slope(radii, values) -> float:
    keep = values > 0
    if keep.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(radii[keep]), np.log(values[keep]), 1)[0])


def campanato_profile(
    field: OrderField,
    center,
    radii,
    sampled: SampledKernel | None = None,
    bulk: BulkPotential | None = None,
) -> DecayProfile:
    """Mean oscillation over a radii ladder with a log-log exponent fit.

    mu is half the fitted slope of the oscillation (so a linear field gives
    mu = 1); when a kernel is supplied the scaled local energies and their
    exponent alpha are recorded too.
    """
    dom = field.domain
    radii = radii_ladder(radii, dom.h)
    osc = np.zeros(radii.size)
    en = np.zeros(radii.size)
    for k, rho in enumerate(radii):
        mask = ball_mask(dom, center, rho) & dom.omega_mask
        if mask.any():
            osc[k] = _mean_oscillation(field.values[mask])
        if sampled is not None and bulk is not None:
            en[k] = local_energy(field, ball_mask(dom, center, rho), sampled, bulk) / rho
    alpha = _loglog_slope(radii, en) if sampled is not None and bulk is not None else float("nan")
    return DecayProfile(radii, osc, en, 0.5 * _loglog_slope(radii, osc), alpha)


def holder_seminorm(
    field: OrderField,
    center,
    radius: float,
    mu: float,
    pair_budget: int = 2_000_000,
    seed: int = 0,
) -> float:
    """sup |u(x)-u(y)| / |x-y|^mu over cell pairs in the ball.

    All pairs are scanned when their count fits the budget; beyond it the
    supremum is taken over that many seeded random pairs instead.
    """
    dom = field.domain
    mask = ball_mask(dom, center, radius) & dom.omega_mask
    pts = dom.cell_centers()[mask]
    u = field.values[mask]
    n = len(pts)
    if n < 2:
        return 0.0
    best = 0.0
    if n * (n - 1) // 2 <= pair_budget:
        for i in range(n - 1):
            d = np.linalg.norm(pts[i + 1 :] - pts[i], axis=-1)
            du = np.linalg.norm(u[i + 1 :] - u[i], axis=-1)
            best = max(best, float(np.max(du / d**mu)))
        return best
    rng = np.random.default_rng(seed)
    for start in range(0, pair_budget, 500_000):
        count = min(500_000, pair_budget - start)
        ii = rng.integers(0, n, count)
        jj = rng.integers(0, n, count)
        keep = ii != jj
        d = np.linalg.norm(pts[ii[keep]] - pts[jj[keep]], axis=-1)
        du = np.linalg.norm(u[ii[keep]] - u[jj[keep]], axis=-1)
        if d.size:
            best = max(best, float(np.max(du / d**mu)))
    return best


def decay_lemma_check(
    field: OrderField,
    center,
    rho: float,
    sampled: SampledKernel,
    bulk: BulkPotential,
    thetas=(0.5, 0.25, 0.125),
    eta: float = 1.0,
    eps_star: float = 0.5,
) -> list:
    """Ratios (theta rho)^-1 F_eps(B_{theta rho}) / rho^-1 F_eps(B_rho).

    Requires the small-energy hypothesis rho^-1 F_eps(B_rho) <= eta and the
    scale separation eps <= eps_star * rho; the smallest inner ball must stay
    resolvable.
    """
    dom = field.domain
    if field.eps > eps_star * rho:
        raise ResolutionMismatch(
            f"eps = {field.eps:g} too large for rho = {rho:g} (eps_star = {eps_star:g})"
        )
    require_resolvable(min(thetas) * rho, dom.h, "smallest inner ball radius")
    base = local_energy(field, ball_mask(dom, center, rho), sampled, bulk) / rho
    if base > eta:
        raise PreconditionNotMet(
            f"small-energy hypothesis fails: rho^-1 F = {base:g} > eta = {eta:g}"
        )
    if base <= 1e-12:
        # round-off energies: every ratio is 0/0, vacuously satisfied
        return [(theta, 0.0) for theta in thetas]
    rows = []
    for theta in thetas:
        inner = local_energy(field, ball_mask(dom, center, theta * rho), sampled, bulk) / (
            theta * rho
        )
        rows.append((theta, _ratio(inner, base)))
    return rows


def uniform_convergence_report(
    fields: list,
    u0: ManifoldField,
    singular: SingularSetReport | None = None,
    dilation_cells: int = 2,
) -> list:
    """sup |u_eps - u0| over Omega away from the dilated flagged set, per eps.

    Returns (eps, sup off the flagged set, sup over all of Omega) rows so the
    caller can see stagnation on the flagged cells too.
    """
    dom = u0.domain
    require_same_grid(fields, dom)
    keep = dom.omega_mask.copy()
    if singular is not None and singular.flagged.any():
        grown = _dilate(singular.flagged, dilation_cells)
        keep &= ~grown
    v0 = u0.values
    rows = []
    for f in fields:
        d = np.linalg.norm(f.values - v0, axis=-1)
        off = float(d[keep].max()) if keep.any() else 0.0
        full = float(d[dom.omega_mask].max()) if dom.omega_mask.any() else 0.0
        rows.append((f.eps, off, full))
    return rows
