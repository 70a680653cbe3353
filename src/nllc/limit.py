"""Limit elastic energy, constrained harmonic minimisation, and convergence checks.

The small-scale problems relax toward fields valued in the vacuum orbit
N = s0 * O; an orbit-valued field stores its values on N, and its boundary
presets are those of field.boundary_values.  This module provides the
quadratic elastic energy with tensor L on such fields, a tangent-plane
implicit minimiser that keeps the constraint exact per cell (it descends on
the forward-difference energy, assembled once per solve as a matrix stored in
padded rows on the cells its links touch, Omega's first), a detector for
concentration of the limit Dirichlet density, and the two-sided convergence
diagnostics comparing small-scale energies with the limit energy on balls.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionMismatch
from .field import Domain, OrderField, ball_mask, boundary_values, convolve_stencil, local_energy
from .field import _neighbour_slices, radii_ladder, require_resolvable, require_same_grid
from .kernel import ElasticTensor, SampledKernel, stencil_offsets
from .potential import _SYM0_BASIS, BulkPotential, coords_to_matrix, q_tensor_coords
from .solver import monotone_descent


# ---------------------------------------------------------------------------
# orbit-valued fields


def project_orbit(y: np.ndarray, s0: float, kind: str) -> np.ndarray:
    """Closest point on the s0-orbit, per cell.

    kind "s1": radial projection in the plane.  kind "s2": reconstruct the
    traceless symmetric matrix, keep the top eigenvector n and return the
    uniaxial coordinates s0 * sigma(n).  Cells at y = 0 fall back to the
    first coordinate axis representative.
    """
    y = np.asarray(y, dtype=float)
    if kind == "s1":
        n = np.linalg.norm(y, axis=-1, keepdims=True)
        safe = np.where(n > 1e-300, n, 1.0)
        out = s0 * y / safe
        ref = np.zeros_like(y)
        ref[..., 0] = s0
        return np.where(n > 1e-300, out, ref)
    if kind == "s2":
        return s0 * q_tensor_coords(_director_of(y))
    raise ValueError(f"unknown orbit kind {kind!r}")


def _director_of(y: np.ndarray) -> np.ndarray:
    """Top eigenvector of the traceless symmetric matrix with coordinates y."""
    return np.linalg.eigh(coords_to_matrix(y))[1][..., :, -1]


def _orbit_dim(kind: str) -> int:
    """Coordinate count m of an orbit kind: the S^1 plane or the uniaxial Q-tensors of S^2."""
    if kind not in ("s1", "s2"):
        raise ValueError(f"unknown orbit kind {kind!r}")
    return 2 if kind == "s1" else 5


@dataclass
class ManifoldField:
    """Orbit-valued field: (Nx,Ny,Nz,m) values on the orbit of radius s0, checked once
    (a known kind, the domain's shape, and project_orbit moves them by <= 1e-9)."""

    domain: Domain
    s0: float
    kind: str  # "s1" | "s2"
    values: np.ndarray  # (Nx,Ny,Nz,m)

    def __post_init__(self):
        shape = self.domain.shape + (_orbit_dim(self.kind),)
        if self.values.shape != shape:
            raise ValueError(f"{self.kind} orbit field needs values of shape {shape}")
        if not np.max(np.abs(project_orbit(self.values, self.s0, self.kind) - self.values)) <= 1e-9:
            raise ValueError(f"values off the {self.kind} orbit of radius {self.s0:g}")

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    def order_field(self, eps: float) -> OrderField:
        return OrderField(self.domain, eps, self.values.copy())


# ---------------------------------------------------------------------------
# limit energy


def _central_gradient(values: np.ndarray, h: float, omega: np.ndarray) -> np.ndarray:
    """(Nx,Ny,Nz,3,m) central differences, zeroed off Omega.

    Raises ResolutionMismatch when Omega touches a box face, where the
    difference would need a cell beyond the box.
    """
    if any(np.take(omega, (0, -1), axis=i).any() for i in range(3)):
        raise ResolutionMismatch("Omega touches the box face: central differences need padding >= 1")
    g = np.zeros(values.shape[:3] + (3,) + values.shape[3:])
    for i, (lo, hi) in enumerate(_neighbour_slices()):
        # at the cells x = 1..n-2 of axis i: u(x + e_i) - u(x - e_i)
        g[..., i, :][hi][lo] = (values[hi][hi] - values[lo][lo]) / (2.0 * h)
    g[~omega] = 0.0
    return g


def limit_energy(mfield: ManifoldField, L: ElasticTensor, region: np.ndarray | None = None) -> float:
    """int_G L grad(u) . grad(u) with central differences and midpoint cells.

    G defaults to Omega; a boolean mask restricts the quadrature to
    G intersect Omega.
    """
    dom = mfield.domain
    omega = dom.omega_mask if region is None else dom.omega_mask & np.asarray(region, dtype=bool)
    g = _central_gradient(mfield.values, dom.h, omega)
    return float(np.einsum("ijab,xyzia,xyzjb->", L.L, g, g) * dom.cell_volume)


@dataclass(frozen=True)
class PaddedRows:
    """A sparse square matrix as rows padded to its longest row (the ELL layout):
    row i holds vals[i] at columns cols[i]; padding entries are zeros."""

    cols: np.ndarray  # (n, width) int
    vals: np.ndarray  # (n, width)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.vals, np.take(x, self.cols))


def _limit_operator(dom: Domain, M: np.ndarray):
    """Forward-difference form of the limit energy as a sparse quadratic form.

    The central-difference quadrature of limit_energy is blind to
    checkerboard modes (odd/even sublattices decouple), so descending on it
    drifts away from the harmonic extension.  The forward-difference form of
    the same quadratic has no null mode, agrees with it to O(h^2) on smooth
    fields, and is what the minimiser descends on; limit_energy stays the
    reporting quadrature.

    Links count when either endpoint lies in Omega; keeping only Omega-based
    links would leave the negative-side boundary trace uncoupled.  The links
    must not reach the box faces (padding_cells() >= 1).

    Returns ``cells``, the flat box indices that a live link touches, Omega's
    cells first and each part sorted, and ``K = D^T (I x M) D`` as PaddedRows
    on their values x (shape ``(len(cells), m)``, flattened): D holds the
    forward differences (x(c + e_i) - x(c)) / h of the live links of each axis
    at their base cell c and M[(i,a),(j,b)] = L[i,j,a,b].  So K gathers, for
    each base cell and each pair of its live axes (i, j), the block
    L[i,j] / h^2 between the two ends of link i and the two of link j; the
    blocks are summed by row cell and neighbour offset, and the nonzero entries
    padded to the longest row.  The energy is cell_volume * x.Kx and its
    Euclidean gradient is 2Kx.
    """
    omega = dom.omega_mask
    m = M.shape[0] // 3
    flat = np.arange(omega.size).reshape(omega.shape)
    ahead = np.full((3, omega.size), -1)  # the far end of each live link, by axis and base cell
    for i, (lo, hi) in enumerate(_neighbour_slices()):
        link = omega[lo] | omega[hi]
        ahead[i, flat[lo][link]] = flat[hi][link]
    live = ahead >= 0
    rest = live.any(axis=0)  # the cells off Omega that a live link touches
    rest[ahead[live]] = True
    rest[flat[omega]] = False
    cells = np.concatenate([flat[omega], np.flatnonzero(rest)])
    pos = np.zeros(omega.size, dtype=int)
    pos[cells] = np.arange(cells.size)
    # link i's ends, base + e_i (ahead) and base, weighted +1/h and -1/h in D, meet
    # link j's a fixed flat-index shift apart: collect the blocks by that shift
    _, ny, nz = omega.shape
    stride = (ny * nz, nz, 1)
    terms = {}
    for i, j in itertools.product(range(3), repeat=2):
        block = M[i * m:(i + 1) * m, j * m:(j + 1) * m] / dom.h**2
        if not block.any():
            continue
        base = np.nonzero(live[i] & live[j])[0]
        for ahead_i, ahead_j in itertools.product((0, 1), repeat=2):
            rows = pos[ahead[i, base] if ahead_i else base]
            terms.setdefault(ahead_j * stride[j] - ahead_i * stride[i], []).append(
                (rows, block if ahead_i == ahead_j else -block))
    shifts = np.array(sorted(terms), dtype=int)
    acc = np.zeros((shifts.size, cells.size, m, m))  # acc[k, p]: cells[p]'s block at shifts[k]
    for k, shift in enumerate(shifts):
        for rows, block in terms[shift]:
            acc[k, rows] += block  # a base meets each pair of ends once: the rows are distinct
    entries = acc.transpose(1, 2, 0, 3).reshape(-1)  # by row (p, a), then shift k and b
    idx = np.flatnonzero(entries)
    row, k, b = idx // (shifts.size * m), idx // m % shifts.size, idx % m
    col = pos[cells[row // m] + shifts[k]] * m + b
    n = m * cells.size
    width = np.bincount(row, minlength=n)
    slot = np.arange(row.size) - (np.cumsum(width) - width)[row]
    ell_cols = np.zeros((n, width.max(initial=0)), dtype=int)
    ell_vals = np.zeros(ell_cols.shape)
    ell_cols[row, slot], ell_vals[row, slot] = col, entries[idx]
    return cells, PaddedRows(ell_cols, ell_vals)


@dataclass
class LimitSolveResult:
    mfield: ManifoldField
    energies: list
    residuals: list
    cg_iterations: list  # conjugate-gradient iterations of each accepted step
    iterations: int
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


# time step tau of the tangent-plane scheme, halved by a rejection and doubled
# back by each accepted step; the step count barely depends on it
TANGENT_STEP = 10.0
# relative residual at which conjugate gradients stop on a step's tangent system
CG_RTOL = 1e-1


def _orbit_chart(y: np.ndarray, s0: float, kind: str):
    """(project_orbit(y, s0, kind), T): the closest orbit point and an
    orthonormal frame T (..., m, d) of the orbit's tangent space there.

    s1: the unit tangent (-x2, x1)/s0 (d = 1).  s2: from the eigenframe of the
    projection's one eigh, the top eigenvector n and the two others e_k give
    the coordinates of (e_k n^T + n e_k^T)/sqrt(2) (d = 2), as q_tensor_coords
    is an isometry up to its sqrt(3/2).
    """
    if kind == "s1":
        x = project_orbit(y, s0, kind)
        return x, np.stack([-x[..., 1], x[..., 0]], axis=-1)[..., None] / s0
    frame = np.linalg.eigh(coords_to_matrix(y))[1]
    n = frame[..., :, -1]
    T = np.sqrt(2.0) * np.einsum("aij,...ik,...j->...ak", _SYM0_BASIS, frame[..., :, :2], n)
    return s0 * q_tensor_coords(n), T


def _conjugate_gradients(apply, b: np.ndarray):
    """Solve apply(a) = b for a symmetric positive definite apply by conjugate
    gradients from a = 0, to a residual |r| <= CG_RTOL |b| (at most b.size
    steps).  Returns (a, iterations)."""
    a, r = np.zeros_like(b), b.copy()
    p, rr = r.copy(), float(np.vdot(r, r))
    stop, k = CG_RTOL**2 * rr, 0
    while rr > stop and k < b.size:
        Ap = apply(p)
        step = rr / float(np.vdot(p, Ap))
        a += step * p
        r -= step * Ap
        rr, rr_old = float(np.vdot(r, r)), rr
        p = r + (rr / rr_old) * p
        k += 1
    return a, k


def harmonic_minimize(
    boundary: ManifoldField,
    L: ElasticTensor,
    tol: float = 1e-8,
    max_iter: int = 5000,
    interior_init: np.ndarray | None = None,
) -> LimitSolveResult:
    """Minimise the limit energy over orbit-valued fields with fixed trace.

    Tangent-plane implicit steps (Alouges 1997; Bartels 2005) on
    solver.monotone_descent.  The objective is the forward-difference
    quadrature cell_volume x.Kx, K the padded rows of _limit_operator,
    assembled once; the iteration runs on the values x of the cells K
    touches, Omega's leading, and the values go back into the box at the end
    (cells outside Omega keep their trace bitwise).  A step takes the
    orthonormal tangent frame T of the orbit on Omega's cells (_orbit_chart)
    and solves (I/tau + 2 T^T K T) alpha = -T^T (2Kx) by conjugate gradients
    to CG_RTOL, one product with Omega's rows of K per inner iteration; the
    trial is x + T alpha retracted with project_orbit, whose eigenframe gives
    the next T.  A trial that raises the energy is rejected and halves tau.
    Recorded energies are the objective's values.  Stationarity is the
    sup-norm over Omega's cells of the tangential gradient |T^T 2Kx|, one
    residual per accepted step.  Raises ResolutionMismatch when Omega touches
    a box face; a solve that runs out of budget or step returns its best
    iterate, with its reason.
    """
    dom = boundary.domain
    if dom.n_omega and dom.padding_cells() < 1:
        raise ResolutionMismatch("Omega touches the box face: the limit solve needs padding >= 1")
    omega = dom.omega_mask
    s0, kind, m = boundary.s0, boundary.kind, boundary.m
    vals = boundary.values.copy()
    if interior_init is not None:
        vals[omega] = project_orbit(interior_init[omega], s0, kind)
    cells, K = _limit_operator(dom, L.matrix)
    box = vals.reshape(-1, m)
    n_om = dom.n_omega  # Omega's cells lead cells: x[:n_om] are the values the steps move
    K_om = PaddedRows(K.cols[:n_om * m], K.vals[:n_om * m])  # Omega's rows

    def evaluate(x, T, cg):
        grad = 2.0 * (K @ x.reshape(-1)).reshape(x.shape)
        tangential = np.einsum("cad,ca->cd", T, grad[:n_om])
        energy = 0.5 * dom.cell_volume * float(np.vdot(x, grad))
        res = float(np.linalg.norm(tangential, axis=-1).max(initial=0.0))
        return (x, T, tangential, cg), energy, res

    def trial(state, tau, rejected):
        x, T, tangential, cg = state
        v = np.zeros_like(x)

        def apply(alpha):
            v[:n_om] = np.einsum("cad,cd->ca", T, alpha)
            return alpha / tau + 2.0 * np.einsum("cad,ca->cd", T, (K_om @ v.reshape(-1)).reshape(-1, m))

        alpha, k = _conjugate_gradients(apply, -tangential)
        y = x.copy()
        y[:n_om], T = _orbit_chart(x[:n_om] + np.einsum("cad,cd->ca", T, alpha), s0, kind)
        return evaluate(y, T, cg + (k,))

    x = box[cells]
    state, energy, _ = evaluate(x, _orbit_chart(x[:n_om], s0, kind)[1], ())
    # the start has no step to measure: an infinite residual, not reported, so one step always runs
    (x, _, _, cg), energies, residuals, it, reason = monotone_descent(
        trial, state, energy, np.inf, tol=tol, max_iter=max_iter, step=TANGENT_STEP, grow=2.0,
        cap=TANGENT_STEP, floor=1e-8 * TANGENT_STEP, rtol=1e-14, exhausted="step_exhausted")
    # the trace is boundary's and Omega's cells are orbit retractions, so the
    # values need not pass the constructor's whole-box check again
    box[cells] = x
    mfield = copy.copy(boundary)
    mfield.values = box.reshape(vals.shape)
    return LimitSolveResult(mfield, energies, residuals[1:], list(cg), it, reason)


# ---------------------------------------------------------------------------
# singular-set detector


@dataclass
class SingularSetReport:
    radii: np.ndarray  # decreasing ladder
    densities: np.ndarray  # (n_radii, Nx, Ny, Nz) scaled local energies
    flagged: np.ndarray  # bool (Nx,Ny,Nz), threshold exceeded at smallest rho
    threshold: float

    @property
    def flagged_fraction(self) -> float:
        return float(self.flagged.sum()) / float(max(1, self.flagged.size))


def singular_set(
    mfield: ManifoldField,
    radii,
    threshold: float,
) -> SingularSetReport:
    """Scaled Dirichlet densities rho^-1 int_{B_rho(x)} |grad u|^2 per cell.

    Cells whose density at the smallest resolvable rho exceeds the threshold
    are flagged.  Radii below the resolvable scale 4h are rejected.
    """
    dom = mfield.domain
    radii = radii_ladder(radii, dom.h)
    omega = dom.omega_mask
    g = _central_gradient(mfield.values, dom.h, omega)
    dens = np.sum(g * g, axis=(-2, -1)) * dom.cell_volume  # per-cell energy
    tables = np.empty((radii.size,) + dom.shape)
    for k, rho in enumerate(radii):
        S = int(np.floor(rho / dom.h + 1e-12))
        ball = (np.linalg.norm(stencil_offsets(S, dom.h), axis=-1) <= rho).astype(float)
        tables[k] = convolve_stencil(ball, dens) / rho
    flagged = (tables[-1] > threshold) & omega
    return SingularSetReport(radii, tables, flagged, threshold)


# ---------------------------------------------------------------------------
# two-sided convergence checks


@dataclass
class GammaGapRow:
    eps: float
    center: tuple
    radius: float
    f_eps: float
    e_limit: float
    l2_half: float  # ||u_eps - u0||_{L^2} on the half-radius ball

    @property
    def gap(self) -> float:
        return self.f_eps - self.e_limit


def gamma_gaps(
    fields: list[OrderField],
    kernels: list[SampledKernel],
    bulks: list[BulkPotential],
    u0: ManifoldField,
    L: ElasticTensor,
    balls,
) -> list[GammaGapRow]:
    """Per-ball table of F_eps(u_eps, B_s) against the limit energy of u0 on B_s,
    with the L2 distance of u_eps from u0 on the half ball.

    fields, kernels and bulks are aligned lists (one entry per eps), all on
    u0's grid; balls is an iterable of (center, s).  Minimisers give the
    lower-bound direction; the recovery family u0.order_field(eps) gives the
    upper-bound one, with zero L2 gaps.  Raises ResolutionMismatch for a
    field whose eps is below the resolvable scale.
    """
    dom = u0.domain
    require_same_grid(fields, dom)
    balls = [(tuple(np.asarray(center, dtype=float)), s) for center, s in balls]
    masks = [ball_mask(dom, center, s) for center, s in balls]
    e_limits = [limit_energy(u0, L, region=mask) for mask in masks]
    rows = []
    for u, sk, bulk in zip(fields, kernels, bulks):
        require_resolvable(u.eps, dom.h, "eps")
        for (center, s), mask, e0 in zip(balls, masks, e_limits):
            f = local_energy(u, mask, sk, bulk)
            half = ball_mask(dom, center, 0.5 * s) & dom.omega_mask
            diff = u.values[half] - u0.values[half]
            l2 = float(np.sqrt(np.sum(diff * diff) * dom.cell_volume))
            rows.append(GammaGapRow(sk.eps, center, s, f, e0, l2))
    return rows


# ---------------------------------------------------------------------------
# boundary presets on orbit coordinates


def orbit_boundary(preset: str, domain: Domain, s0: float, kind: str, **params) -> ManifoldField:
    """The boundary preset of field.boundary_values as a field on the kind's orbit."""
    values = boundary_values(preset, domain, s0, _orbit_dim(kind), **params)
    return ManifoldField(domain, s0, kind, values)
