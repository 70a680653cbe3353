"""Lattice domains, order fields, boundary data, and the discrete energies.

The computational box is a uniform cubic lattice of cell centres.  Each cell
carries a region tag: interior (the minimisation domain Omega), layer (the
finite-thickness boundary collar Omega_eps \\ Omega), or exterior.  Boundary
data occupies the layer and exterior cells and is never modified by energy
evaluation or solving.

Energies follow the midpoint rule: a double lattice sum weighted h^6 for the
interaction and h^3 for the bulk term.  Every interaction is one non-local
form over G x G, which _interaction_sums expands into convolutions.  The
primal and oscillation forms are related by an exact algebraic identity
through the constant C_eps, so the code reproduces it at round-off on any box.

A solve changes only the values on Omega.  OmegaSplit writes u = u_Omega + u_c
with u_c the fixed values off Omega and takes, once, what u_c contributes:
w = (K_eps*u_c)|Omega and the constant box sums of u_c.  The oscillation
energy of any values on Omega then costs one FFT convolution over Omega's
bounding window, where the stencil is cut to the window, and sums over Omega.
The whole-box convolve and energies stay the reference it is tested against.
"""

import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DumpFormatError, LayerTooThin, ResolutionMismatch
from .kernel import KernelSpec, SampledKernel, max_eigen
from .potential import (
    BulkPotential,
    dual_map,
    make_bulk_potential,
    psi_b,
    psi_b_at_dual,
    psi_s,
    q_tensor_coords,
)

INTERIOR, LAYER, EXTERIOR = 0, 1, 2


# ---------------------------------------------------------------------------
# domains


@dataclass
class Domain:
    """Cubic lattice of cell centres with a region tag per cell."""

    h: float
    region: np.ndarray  # (Nx, Ny, Nz) uint8
    geometry: str = "ball"
    omega_radius: float = 0.0

    @property
    def shape(self):
        return self.region.shape

    @property
    def cell_volume(self):
        return self.h**3

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return (np.arange(n) - (n - 1) / 2.0) * self.h

    def cell_centers(self) -> np.ndarray:
        grids = np.meshgrid(*(self.axis_coords(a) for a in range(3)), indexing="ij")
        return np.stack(grids, axis=-1)

    @property
    def omega_mask(self):
        return self.region == INTERIOR

    @property
    def layer_mask(self):
        return self.region == LAYER

    @property
    def exterior_mask(self):
        return self.region == EXTERIOR

    @property
    def omega_eps_mask(self):
        return self.region != EXTERIOR

    @property
    def n_omega(self):
        return int(self.omega_mask.sum())

    def padding_cells(self) -> int:
        """Minimum cell distance from any interior cell to the box faces."""
        idx = np.nonzero(self.omega_mask)
        pad = min(
            min(int(ix.min()), self.shape[a] - 1 - int(ix.max())) for a, ix in enumerate(idx)
        )
        return pad

    def centre_distance(self) -> np.ndarray:
        """Per-cell distance from the box centre in the geometry's norm:
        Euclidean for a ball, max-norm for a cube."""
        x = self.cell_centers()
        if self.geometry == "ball":
            return np.linalg.norm(x, axis=-1)
        return np.max(np.abs(x), axis=-1)

    def layer_thickness(self) -> float:
        """Smallest distance from Omega to the exterior region (inf if no exterior)."""
        if not self.exterior_mask.any():
            return np.inf
        d = self.centre_distance()
        return float(d[self.exterior_mask].min() - d[self.omega_mask].max())


def _centred_domain(n, h, geometry, size, layer_thickness, size_name) -> Domain:
    dom = Domain(h, np.full((n, n, n), EXTERIOR, dtype=np.uint8), geometry, size)
    d = dom.centre_distance()
    dom.region[d <= size + layer_thickness] = LAYER
    dom.region[d <= size] = INTERIOR
    if not dom.omega_mask.any():
        raise ValueError(f"{size_name} too small: no interior cells")
    return dom


def ball_domain(n: int, h: float, omega_radius: float, layer_thickness: float = np.inf) -> Domain:
    """Ball Omega of the given radius centred in an n^3 box; the collar out to
    omega_radius + layer_thickness is tagged as layer, the rest exterior."""
    return _centred_domain(n, h, "ball", omega_radius, layer_thickness, "omega_radius")


def cube_domain(n: int, h: float, omega_half_width: float, layer_thickness: float = np.inf) -> Domain:
    """Cube Omega of the given half width, tagged like ball_domain in the max-norm."""
    return _centred_domain(n, h, "cube", omega_half_width, layer_thickness, "omega_half_width")


def ball_mask(domain: Domain, center, radius: float) -> np.ndarray:
    """Boolean cell mask of the ball B_radius(center)."""
    x = domain.cell_centers()
    return np.linalg.norm(x - np.asarray(center, dtype=float), axis=-1) <= radius


# ---------------------------------------------------------------------------
# order fields and boundary data


@dataclass
class OrderField:
    domain: Domain
    eps: float
    values: np.ndarray  # (Nx, Ny, Nz, m)

    @property
    def m(self):
        return self.values.shape[-1]

    def copy(self) -> "OrderField":
        return OrderField(self.domain, self.eps, self.values.copy())


def boundary_values(preset: str, domain: Domain, s0: float, m: int, **params) -> np.ndarray:
    """Boundary-datum presets on the s0-orbit, evaluated on the full box.

    constant       the reference state s0 * sigma(x1-axis) everywhere (phi = 0)
    smooth-angle   degree-0 angle field phi = slope * x1
    vortex         phi = winding * atan2(x2, x1): a singular line along x3
    """
    return _orbit_field(boundary_angle(preset, domain, **params), s0, m)


def boundary_angle(preset: str, domain: Domain, **params) -> np.ndarray:
    """Orbit angle phi of a boundary preset on the full box."""
    if preset == "constant":
        return np.zeros(domain.shape)
    x = domain.cell_centers()
    if preset == "smooth-angle":
        return float(params.get("slope", 1.0)) * x[..., 0]
    if preset == "vortex":
        return float(params.get("winding", 1.0)) * np.arctan2(x[..., 1], x[..., 0])
    raise ValueError(f"unknown boundary preset {preset!r}")


def _orbit_field(phi: np.ndarray, s0: float, m: int) -> np.ndarray:
    """Map an angle field onto the s0-orbit: planar rotation of the reference state
    (on S^2 the director [cos phi/2, sin phi/2, 0], whose uniaxial state turns by phi)."""
    if m == 2:
        return s0 * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    if m == 5:
        half = 0.5 * phi
        director = np.stack([np.cos(half), np.sin(half), np.zeros_like(half)], axis=-1)
        return s0 * q_tensor_coords(director)
    raise ValueError(f"no orbit parametrization for m = {m}")


def make_field(domain: Domain, eps: float, boundary: np.ndarray, interior=None) -> OrderField:
    """Assemble a field equal to the boundary datum off Omega.

    interior may be None (datum everywhere), a constant vector, or a full
    (Nx,Ny,Nz,m) array from which interior cells are taken.
    """
    vals = np.array(boundary, dtype=float, copy=True)
    if interior is not None:
        interior = np.asarray(interior, dtype=float)
        mask = domain.omega_mask
        if interior.ndim == 1:
            vals[mask] = interior
        else:
            vals[mask] = interior[mask]
    return OrderField(domain, eps, vals)


# ---------------------------------------------------------------------------
# convolution


def _check_kernel_grid(sampled: SampledKernel, domain: Domain):
    if not np.isclose(sampled.h, domain.h, rtol=1e-12, atol=0.0):
        raise ResolutionMismatch(
            f"kernel stencil spacing {sampled.h:g} != domain spacing {domain.h:g}"
        )


def require_padding(domain: Domain, sampled: SampledKernel):
    _check_kernel_grid(sampled, domain)
    pad = domain.padding_cells()
    if pad < sampled.radius_cells:
        raise ResolutionMismatch(
            f"interior padding {pad} cells < stencil radius {sampled.radius_cells}"
        )


def _stencil_shifts(sampled: SampledKernel, n):
    """(K(z), lo, hi) for each nonzero stencil offset z shorter than the box n per axis:
    values[lo] and values[hi] are the cells x and x + z of every such pair in the box."""
    S = sampled.radius_cells
    for idx in np.ndindex(sampled.values.shape[:3]):
        kern = sampled.values[idx]
        z = [i - S for i in idx]
        if not kern.any() or any(abs(d) >= nn for d, nn in zip(z, n)):
            continue
        lo = tuple(slice(max(0, -d), min(nn, nn - d)) for d, nn in zip(z, n))
        hi = tuple(slice(max(0, d), min(nn, nn + d)) for d, nn in zip(z, n))
        yield kern, lo, hi


def _neighbour_slices():
    """(lo, hi) for each box axis: values[lo] and values[hi] are the cells x and
    x + e_axis of every pair of neighbours along that axis."""
    for axis in range(3):
        lo = tuple(slice(None, -1) if a == axis else slice(None) for a in range(3))
        hi = tuple(slice(1, None) if a == axis else slice(None) for a in range(3))
        yield lo, hi


def _padded_shape(n, radius: int) -> tuple:
    """FFT lengths of a linear convolution over a box n with a centred stencil of the
    given radius; offsets |z_i| >= n_i pair no two cells of the box and are cut."""
    return tuple(scipy.fft.next_fast_len(min(2 * k - 1, k + 2 * radius)) for k in n)


def _stencil_fft(stencil: np.ndarray, n) -> np.ndarray:
    """Spectrum of a centred (2S+1)^3 stencil, any trailing shape, for a box n: cut to
    the per-axis radius min(S, n_i - 1) and wrapped onto _padded_shape(n, S)."""
    S = len(stencil) // 2
    p = _padded_shape(n, S)
    cut = [min(S, k - 1) for k in n]
    kern = np.zeros(p + stencil.shape[3:])
    kern[np.ix_(*(np.mod(np.arange(-c, c + 1), q) for c, q in zip(cut, p)))] = stencil[
        tuple(slice(S - c, S + c + 1) for c in cut)]
    return scipy.fft.rfftn(kern, axes=(0, 1, 2))


def _kernel_fft(sampled: SampledKernel, n):
    key = ("kfft", n)
    if key not in sampled._cache:
        sampled._cache[key] = _stencil_fft(sampled.values, n)
    return sampled._cache[key]


def _fft_convolve(x: np.ndarray, radius: int, times) -> np.ndarray:
    """Zero-extend x over its box axes to _padded_shape(box, radius), map the spectrum
    through times and crop the inverse back to x's box."""
    n, axes = x.shape[:3], (0, 1, 2)
    p = _padded_shape(n, radius)
    out = scipy.fft.irfftn(times(scipy.fft.rfftn(x, s=p, axes=axes)), s=p, axes=axes)
    return out[: n[0], : n[1], : n[2]]


def _kernel_convolve(sampled: SampledKernel, u: np.ndarray, h: float) -> np.ndarray:
    """convolve's FFT path, without its checks; u's box may be any window."""
    return _fft_convolve(u, sampled.radius_cells, lambda uf: np.einsum(
        "...ab,...b->...a", _kernel_fft(sampled, u.shape[:3]), uf)) * h**3


def convolve(sampled: SampledKernel, field_values: np.ndarray, h: float, method: str = "fft"):
    """(K_eps * u)(x) = sum_z K_eps(z) u(x - z) h^3 with zero extension off the box."""
    u = np.asarray(field_values, dtype=float)
    m = sampled.m
    if u.shape[-1] != m:
        raise ResolutionMismatch(f"field has {u.shape[-1]} components, kernel expects {m}")
    if method == "direct":
        # the definition, one stencil offset at a time: u(x) meets K(z) at x + z
        out = np.zeros_like(u)
        for kern, lo, hi in _stencil_shifts(sampled, u.shape[:3]):
            out[hi] += u[lo] @ kern.T
        return out * h**3
    if method != "fft":
        raise ValueError(f"unknown convolution method {method!r}")
    return _kernel_convolve(sampled, u, h)


def convolve_mask(sampled: SampledKernel, mask: np.ndarray, h: float) -> np.ndarray:
    """(K_eps * 1_G)(x) h^3 as an (Nx,Ny,Nz,m,m) matrix field."""
    return _fft_convolve(mask.astype(float), sampled.radius_cells,
                         lambda mf: _kernel_fft(sampled, mask.shape) * mf[..., None, None]) * h**3


def convolve_stencil(stencil: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_z stencil(z) u(x - z) for a centred scalar (2S+1)^3 stencil, with zero
    extension off the box; u may carry trailing component axes."""
    u = np.asarray(values, dtype=float)
    trail = (...,) + (None,) * (u.ndim - 3)
    return _fft_convolve(u, len(stencil) // 2,
                         lambda uf: _stencil_fft(stencil, u.shape[:3])[trail] * uf)


def box_moment_field(sampled: SampledKernel, domain: Domain) -> np.ndarray:
    """S_B(x) = sum_{y in box} K_eps(x-y) h^3; equals the stencil moment deep inside."""
    key = ("sbox", domain.shape)
    if key not in sampled._cache:
        sampled._cache[key] = convolve_mask(
            sampled, np.ones(domain.shape, dtype=bool), domain.h
        )
    return sampled._cache[key]


# ---------------------------------------------------------------------------
# energies


@dataclass
class EnergyBreakdown:
    form: str  # "primal", "oscillation", or "finite-thickness"
    interaction: float
    bulk: float
    c_eps: float
    total: float


def _quadratic_sum(u: np.ndarray, S: np.ndarray, mask=None) -> float:
    """sum over cells of u(x) . S(x) u(x), optionally restricted to a mask."""
    m = u.shape[-1]
    if mask is None:  # views of the whole box, no boolean-index copies
        S, u = S.reshape(-1, m, m), u.reshape(-1, m)
    else:
        S, u = S[mask], u[mask]
    return float(np.einsum("nab,na,nb->", S, u, u))


def _interaction_sums(field: OrderField, sampled: SampledKernel, region=None, v=None) -> tuple:
    """(sum_G u.S_G u, sum_G u.(K_eps * u 1_G)) h^3, S_G = K_eps * 1_G.

    The non-local form over G x G is (quad - cross) / (2 eps^2).  G is the
    whole box when region is None: S_G is then the cached box moment field
    and v = K_eps*u comes from the caller.  Otherwise G is the cell mask
    region and both convolutions are taken here.
    """
    u, dom = field.values, field.domain
    h3 = dom.cell_volume
    if region is None:
        return (_quadratic_sum(u, box_moment_field(sampled, dom)) * h3,
                float(np.sum(u * v)) * h3)
    S_G = convolve_mask(sampled, region, dom.h)
    vG = convolve(sampled, np.where(region[..., None], u, 0.0), dom.h)
    return (_quadratic_sum(u, S_G, region) * h3,
            float(np.einsum("na,na->", u[region], vG[region])) * h3)


@dataclass
class OmegaSplit:
    """A field split as u = u_Omega + u_c, u_c its values off Omega, held fixed.

    K_eps is even and symmetric, so for every u_Omega the box form has an
    Omega part, the cross term 2 u_Omega.w with w = (K_eps*u_c)|Omega, and
    const = (sum_{off Omega} u_c.S_B u_c - sum_box u_c.(K_eps*u_c)) h^3,
    the box sums of u_c alone.  Given w, S_B on Omega and const, values on
    Omega cost one FFT convolution over Omega's bounding window and sums over
    Omega; no array of the box's size.
    """

    sampled: SampledKernel
    h: float
    eps: float
    inner: np.ndarray  # Omega's cells in its bounding window
    s_b: np.ndarray  # S_B on Omega, (n_Omega, m, m)
    w: np.ndarray  # (K_eps*u_c) on Omega
    const: float

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """K_eps*u on Omega for the field with values u there: (K_eps*u_Omega)|Omega + w."""
        x = np.zeros(self.inner.shape + u.shape[-1:])
        x[self.inner] = u
        return _kernel_convolve(self.sampled, x, self.h)[self.inner] + self.w

    def energy(self, bulk: BulkPotential, u: np.ndarray, v: np.ndarray,
               b: np.ndarray) -> EnergyBreakdown:
        """energy_oscillation of the field with values u on Omega, v = K_eps*u and the
        duals b = Lambda(u) there."""
        quad = _quadratic_sum(u, self.s_b) - float(np.einsum("na,na->", u, v + self.w))
        pair = 0.5 * (quad * self.h**3 + self.const) / self.eps**2
        return _oscillation(pair, bulk, u, b, self.h**3, self.eps**2)


def omega_split(field: OrderField, sampled: SampledKernel) -> OmegaSplit:
    """field's OmegaSplit, from one whole-box convolution of u_c."""
    dom = field.domain
    om = dom.omega_mask
    u_c = np.where(om[..., None], 0.0, field.values)
    v_c = convolve(sampled, u_c, dom.h)
    quad, cross = _interaction_sums(OrderField(dom, field.eps, u_c), sampled, v=v_c)
    window = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(om))
    return OmegaSplit(sampled, dom.h, field.eps, om[window], box_moment_field(sampled, dom)[om],
                      v_c[om], quad - cross)


def _primal(field: OrderField, sampled: SampledKernel, bulk: BulkPotential, form: str,
            support=None) -> EnergyBreakdown:
    """The primal form with the interaction over G x G, G the support mask or the box.

    C_eps = (c0|Omega| + (1/2)(sum_box u.S_B u - sum_Omega u.intK_disc u)) h^3/eps^2,
    S_B the box moment field, makes the whole-box form equal the oscillation
    form exactly.
    """
    dom = field.domain
    u, om = field.values, dom.omega_mask
    eps2 = field.eps**2
    h3 = dom.cell_volume
    if support is None:
        dot = float(np.sum(u * convolve(sampled, u, dom.h)))
    else:
        v = convolve(sampled, np.where(support[..., None], u, 0.0), dom.h)
        dot = float(np.einsum("na,na->", u[support], v[support]))
    interaction = -0.5 / eps2 * dot * h3
    bulk_term = float(np.sum(psi_s(bulk.model, u[om]))) * h3 / eps2
    quad = _quadratic_sum(u, box_moment_field(sampled, dom)) - float(
        np.einsum("na,ab,nb->", u[om], sampled.intK_disc, u[om]))
    c = (bulk.c0 * dom.n_omega + 0.5 * quad) * h3 / eps2
    return EnergyBreakdown(form, interaction, bulk_term, c, interaction + bulk_term + c)


def energy_primal(field: OrderField, sampled: SampledKernel,
                  bulk: BulkPotential) -> EnergyBreakdown:
    """-(1/2eps^2) double-sum u.K_eps u + (1/eps^2) sum_Omega psi_s + C_eps."""
    require_padding(field.domain, sampled)
    return _primal(field, sampled, bulk, "primal")


def _pairwise_interaction(
    values: np.ndarray, sampled: SampledKernel, h: float, mask=None
) -> float:
    """(1/4) sum over stencil pairs of K_eps(x-y)(u(x)-u(y)).(u(x)-u(y)) h^6.

    Direct shift-based evaluation of the definition; with a mask, both cells
    of every counted pair must lie in the mask.
    """
    acc = 0.0
    for kern, lo, hi in _stencil_shifts(sampled, values.shape[:3]):
        du = values[lo] - values[hi]
        if mask is not None:
            du = du * (mask[lo] & mask[hi])[..., None]
        acc += float(np.einsum("xyza,ab,xyzb->", du, kern, du))
    return 0.25 * acc * h**6


def energy_oscillation(
    field: OrderField,
    sampled: SampledKernel,
    bulk: BulkPotential,
    method: str = "fast",
    b0: np.ndarray | None = None,
) -> EnergyBreakdown:
    """(1/4eps^2) double-sum K_eps (u(x)-u(y))^tensor2 + (1/eps^2) sum_Omega psi_b.

    method "fast" expands the square through two convolutions; "pairwise"
    evaluates the defining double sum shift by shift.  b0 warm-starts the
    dual solve on Omega.
    """
    require_padding(field.domain, sampled)
    if method not in ("fast", "pairwise"):
        raise ValueError(f"unknown oscillation method {method!r}")
    dom, eps2 = field.domain, field.eps**2
    if method == "fast":
        quad, cross = _interaction_sums(field, sampled, v=convolve(sampled, field.values, dom.h))
        pair = 0.5 * (quad - cross) / eps2
    else:
        pair = _pairwise_interaction(field.values, sampled, dom.h) / eps2
    u_om = field.values[dom.omega_mask]
    return _oscillation(pair, bulk, u_om, dual_map(bulk.model, u_om, b0=b0), dom.cell_volume, eps2)


def _oscillation(pair: float, bulk: BulkPotential, u_om: np.ndarray, b: np.ndarray,
                 h3: float, eps2: float) -> EnergyBreakdown:
    """The oscillation form from its interaction and the duals b on Omega."""
    bulk_term = float(np.sum(psi_b_at_dual(bulk, u_om, b))) * h3 / eps2
    return EnergyBreakdown("oscillation", pair, bulk_term, 0.0, pair + bulk_term)


def local_form(field: OrderField, region: np.ndarray, sampled: SampledKernel,
               method: str = "fast") -> float:
    """Interaction part of F_eps(u, G): (1/4eps^2) double sum over G x G."""
    dom = field.domain
    _check_kernel_grid(sampled, dom)
    region = np.asarray(region, dtype=bool)
    if region.shape != dom.shape:
        raise ResolutionMismatch("region mask shape differs from the domain box")
    eps2 = field.eps**2
    if method == "pairwise":
        return _pairwise_interaction(field.values, sampled, dom.h, mask=region) / eps2
    quad, cross = _interaction_sums(field, sampled, region)
    return 0.5 * (quad - cross) / eps2


def local_energy(field: OrderField, region: np.ndarray, sampled: SampledKernel,
                 bulk: BulkPotential) -> float:
    """F_eps(u, G): interaction over G x G plus bulk over G intersect Omega.

    No padding requirement: pairs are restricted to G x G inside the box, so
    the zero-extended transforms are exact regardless of stencil overhang.
    """
    pair = local_form(field, region, sampled)
    gm = np.asarray(region, dtype=bool) & field.domain.omega_mask
    h3 = field.domain.cell_volume
    eps2 = field.eps**2
    bulk_term = float(np.sum(psi_b(bulk, field.values[gm]))) * h3 / eps2 if gm.any() else 0.0
    return pair + bulk_term


# ---------------------------------------------------------------------------
# scaling


def trilinear_sample(values: np.ndarray, domain: Domain, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a lattice field at physical points.

    Points that land exactly on lattice sites (within 1e-12 cells) take the
    stored values bitwise; points outside the box clamp to the nearest face.
    """
    pts = np.asarray(points, dtype=float)
    n = np.array(domain.shape)
    # fractional index coordinates
    f = pts / domain.h + (n - 1) / 2.0
    f = np.clip(f, 0.0, n - 1)
    i0 = np.floor(f).astype(int)
    i0 = np.minimum(i0, n - 2)
    t = f - i0
    on_site = np.all(np.abs(f - np.rint(f)) < 1e-12, axis=-1)
    out = np.zeros(pts.shape[:-1] + (values.shape[-1],))
    for corner in range(8):
        d = np.array([(corner >> a) & 1 for a in range(3)])
        w = np.prod(np.where(d, t, 1.0 - t), axis=-1)
        idx = i0 + d
        out += w[..., None] * values[idx[..., 0], idx[..., 1], idx[..., 2]]
    if on_site.any():
        ri = np.rint(f[on_site]).astype(int)
        out[on_site] = values[ri[:, 0], ri[:, 1], ri[:, 2]]
    return out


def scaling_check(
    field: OrderField,
    center,
    rho: float,
    sampled: SampledKernel,
    bulk: BulkPotential,
) -> tuple:
    """Compare rho^-1 F_eps(u, B_rho(center)) with F_{eps/rho}(u_rho, B_1(0)).

    The rescaled problem lives on an index-aligned lattice of spacing h/rho,
    so u_rho is sampled exactly at original lattice sites whenever center is a
    lattice vector and by trilinear interpolation otherwise.
    """
    dom = field.domain
    c = np.asarray(center, dtype=float)
    lhs = local_energy(field, ball_mask(dom, c, rho), sampled, bulk) / rho

    # rescaled lattice: same index grid, spacing h/rho; values pulled back
    x_src = dom.cell_centers() + c
    # every cell of the unit ball on the rescaled grid must resample from
    # inside the original box
    ball_src = x_src[np.linalg.norm(dom.cell_centers(), axis=-1) <= rho]
    half = (np.array(dom.shape) - 1) / 2.0 * dom.h
    if ball_src.size and np.any(np.abs(ball_src) > half + 1e-9 * dom.h):
        raise ResolutionMismatch("rescaled ball resamples from outside the box")
    vals = trilinear_sample(field.values, dom, x_src.reshape(-1, 3)).reshape(
        dom.shape + (field.m,)
    )
    # Omega of the rescaled problem is the pre-image of the original Omega:
    # pull the region tags back by nearest-neighbour lookup
    n = np.array(dom.shape)
    src_idx = np.clip(
        np.rint(x_src / dom.h + (n - 1) / 2.0).astype(int), 0, n - 1
    )
    region = dom.region[src_idx[..., 0], src_idx[..., 1], src_idx[..., 2]]
    sdom = Domain(dom.h / rho, region, dom.geometry, dom.omega_radius / rho)
    skernel = SampledKernel(
        sampled.spec,
        sampled.eps / rho,
        sampled.h / rho,
        sampled.radius_cells,
        sampled.values * rho**3,
        sampled.r_trunc / rho,
        sampled.trunc_error,
    )
    sbulk = make_bulk_potential(bulk.model, skernel.intK_disc)
    sfield = OrderField(sdom, field.eps / rho, vals)
    rhs = local_energy(sfield, ball_mask(sdom, np.zeros(3), 1.0), skernel, sbulk)
    return lhs, rhs, rhs - lhs


# ---------------------------------------------------------------------------
# finite thickness


def check_layer(domain: Domain, eps: float, q: float, tau: float):
    need = tau * eps ** (1.0 - 2.0 / q)
    have = domain.layer_thickness()
    if have < need:
        raise LayerTooThin(
            f"layer thickness {have:g} < required tau*eps^(1-2/q) = {need:g}"
        )


def finite_thickness_energy(field: OrderField, sampled: SampledKernel,
                            bulk: BulkPotential) -> EnergyBreakdown:
    """Primal energy with the interaction restricted to Omega_eps x Omega_eps."""
    dom = field.domain
    require_padding(dom, sampled)
    check_layer(dom, field.eps, sampled.spec.q, sampled.spec.tau)
    return _primal(field, sampled, bulk, "finite-thickness", dom.omega_eps_mask)


def h_eps_profile(domain: Domain, spec: KernelSpec, eps: float) -> tuple:
    """Per-cell tail bound ||H_eps(x)|| on Omega and its supremum.

    H_eps(x) = eps^-2 * integral of ||K|| over the complement of the rescaled
    layer neighbourhood; bounded here through the radial tail beyond
    dist(x, exterior)/eps, which is exact for radially dominated kernels.
    """
    om = domain.omega_mask
    if not domain.exterior_mask.any():
        dist = np.full(om.sum(), np.inf)
    else:
        d = domain.centre_distance()
        dist = d[domain.exterior_mask].min() - d[om]
    tail_fn = _radial_tail_table(spec)
    vals = tail_fn(np.maximum(dist, 0.0) / eps) / eps**2
    field = np.zeros(domain.shape)
    field[om] = vals
    return field, float(vals.max())


def _radial_tail_table(spec: KernelSpec):
    """Interpolant of r -> integral_{|z| > r} lambda_max(K(z)) dz."""
    R = spec.support_radius
    if np.isfinite(R):
        r_hi = R
    else:
        r_hi = 64.0 * max(b for p in spec.profiles for b in p.breakpoints())
    rs = np.linspace(0.0, r_hi, 2049)
    mid = 0.5 * (rs[:-1] + rs[1:])
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                     [0.577350269189626, 0.577350269189626, 0.577350269189626]])
    lam = np.max(
        [max_eigen(spec, mid[:, None] * d[None, :]) for d in dirs], axis=0
    )
    dens = 4.0 * np.pi * mid**2 * lam * np.diff(rs)
    cum = np.concatenate([[0.0], np.cumsum(dens)])
    total = cum[-1]
    if not np.isfinite(R):
        extra = spec.f1.tail_radial_moment(2, r_hi)
        tail_beyond = 4.0 * np.pi * extra if extra is not None and np.isfinite(extra) else 0.0
    else:
        tail_beyond = 0.0

    def tail(r):
        r = np.asarray(r, dtype=float)
        inside = np.interp(np.minimum(r, r_hi), rs, total - cum)
        if np.isfinite(R):
            return np.where(r >= R, 0.0, inside)
        beyond = np.zeros_like(r)
        over = r > r_hi
        if np.any(over):
            t = np.array(
                [spec.f1.tail_radial_moment(2, float(ri)) for ri in np.atleast_1d(r)[over]]
            )
            beyond[over] = 4.0 * np.pi * t - tail_beyond
        return inside + tail_beyond + beyond

    return tail


# ---------------------------------------------------------------------------
# field dumps

# header after the magic: shape, m, [geometry code,] h, eps[, Omega size]
_HEADERS = {b"NLLC1": struct.Struct("<4I2d"), b"NLLC2": struct.Struct("<5I3d")}
_GEOMETRIES = ("ball", "cube")


def write_nllc1(path, field: OrderField):
    """Dump a field in the NLLC2 format, NLLC1 with the domain's geometry and size."""
    dom = field.domain
    with open(path, "wb") as fh:
        fh.write(b"NLLC2")
        fh.write(_HEADERS[b"NLLC2"].pack(*dom.shape, field.m, _GEOMETRIES.index(dom.geometry),
                                         dom.h, field.eps, dom.omega_radius))
        fh.write(dom.region.astype(np.uint8).tobytes(order="C"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes(order="C"))


def read_nllc1(path) -> OrderField:
    """Read a dump of write_nllc1, or an NLLC1 dump: a ball of radius 0, as that
    format kept no geometry.

    Raises DumpFormatError on a wrong magic or geometry code and on a file
    whose size is not the one its header declares (a truncated dump or
    trailing bytes).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:5]
    if magic not in _HEADERS:
        raise DumpFormatError(f"bad magic {magic!r}: not an NLLC1 or NLLC2 dump")
    head = _HEADERS[magic]
    header = 5 + head.size
    if len(data) < header:
        raise DumpFormatError(f"{magic.decode()} dump of {len(data)} bytes is shorter than its header")
    if magic == b"NLLC1":
        (nx, ny, nz, m, h, eps), geometry, size = head.unpack_from(data, 5), 0, 0.0
    else:
        nx, ny, nz, m, geometry, h, eps, size = head.unpack_from(data, 5)
    if geometry >= len(_GEOMETRIES):
        raise DumpFormatError(f"unknown geometry code {geometry}")
    cells = nx * ny * nz
    expect = header + cells * (1 + 8 * m)
    if len(data) != expect:
        raise DumpFormatError(f"dump of {len(data)} bytes; its header declares {expect}")
    region = np.frombuffer(data, np.uint8, cells, header).reshape(nx, ny, nz)
    values = np.frombuffer(data, "<f8", cells * m, header + cells).reshape(nx, ny, nz, m).copy()
    return OrderField(Domain(h, region.copy(), _GEOMETRIES[geometry], size), eps, values)
