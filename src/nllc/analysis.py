"""Quantitative probes of the regularity results at lattice scale.

Campanato mean-oscillation decay with fitted exponents, Hoelder seminorms
over sampled cell pairs, the one-step energy decay ratios, and
uniform-convergence tables against a limit field away from flagged cells.
All constants here are measured, not derived; the module reports ratios and
fits and leaves thresholds to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionNotMet, ResolutionMismatch
from .field import OrderField, ball_mask, local_energy
from .field import _neighbour_slices, radii_ladder, require_resolvable, require_same_grid
from .kernel import SampledKernel
from .limit import ManifoldField, SingularSetReport
from .potential import BulkPotential


# ---------------------------------------------------------------------------
# helpers


def _ratio(lhs: float, rhs: float) -> float:
    """Ratio with the 0/0 -> 0 convention for vacuously true inequalities.

    Both sides are quadratic forms evaluated in floating point, so "zero"
    means below round-off; negative round-off on the right clamps to zero.
    """
    rhs = max(rhs, 0.0)
    if lhs <= 1e-20:
        return 0.0
    return lhs / rhs if rhs > 0 else np.inf


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


def _mean_oscillation(u: np.ndarray) -> float:
    """Mean square distance of the values u (one per row) from their mean."""
    return float(np.mean(np.sum((u - u.mean(axis=0)) ** 2, axis=-1)))


# ---------------------------------------------------------------------------
# decay profiles


@dataclass
class DecayProfile:
    radii: np.ndarray  # decreasing
    mean_osc: np.ndarray
    scaled_energy: np.ndarray  # rho^-1 F_eps, or zeros when no kernel given
    mu: float  # fitted oscillation exponent (osc ~ rho^{2 mu})
    alpha: float  # fitted energy exponent (rho^-1 F ~ rho^alpha), nan if unset


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
    caller can see stagnation on the flagged cells too; the off-set sup is nan
    when the dilated flagged set covers Omega.
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
        off = float(d[keep].max()) if keep.any() else float("nan")
        full = float(d[dom.omega_mask].max()) if dom.omega_mask.any() else 0.0
        rows.append((f.eps, off, full))
    return rows
