"""Lattice domains, order fields, boundary data, and the discrete energies.

The computational box is a uniform cubic lattice of cell centres.  A boolean
mask marks the minimisation domain Omega; every other cell belongs to the data
layer Omega_eps \\ Omega, which fills the box.  Boundary data occupies those
cells and is never modified by energy evaluation or solving.

Energies follow the midpoint rule: a double lattice sum weighted h^6 for the
interaction and h^3 for the bulk term.  Every interaction is one non-local
form over G x G, which _interaction_sums expands into moment fields and a
box sum.  The primal and oscillation forms are related by an exact algebraic
identity through the constant C_eps, so the code reproduces it at round-off on
any box.

Every convolution is a numpy FFT over the box axes of a components-first
array, zero-extended per axis to the 5-smooth length fast_len(n + min(S, n - 1)):
just long enough that no source wraps into the box.  Its inverse,
_window_inverse, runs axis by axis as irfftn does and keeps only the rows of
the box, or of a window in it, before the next axis.  A scalar-mode kernel is
f1 Id, so it keeps one scalar spectrum, of f1, that multiplies every component,
and its moment fields K_eps * 1_G hold one number per cell; a nematic kernel
keeps the (m, m) spectrum and matrix moment fields.  A whole-box sum
sum_box u.(K_eps*u) needs no inverse transform: _box_pass takes it by
Parseval from u's forward spectra, one component at a time for a scalar
spectrum, so no array of the padded box holds more than one component.

A solve changes only the values on Omega.  OmegaSplit writes u = u_Omega + u_c
with u_c the fixed values off Omega and takes, once, what u_c contributes:
one _box_pass of u_c less its mean gives the constant box sums of u_c, and
w = (K_eps*u_c)|Omega by an inverse pruned to Omega's bounding window.  The
oscillation energy of any values on Omega then costs one FFT convolution over
that window, where the stencil is cut to the window, and sums over Omega.  The
whole-box convolve is the reference it is tested against, and _direct_convolve
and _pairwise_interaction, the definitions summed one stencil offset at a time,
are the references of the FFT paths.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DumpFormatError, ResolutionMismatch
from .kernel import SampledKernel, preset_params
from .potential import (
    BulkPotential,
    dual_map,
    psi_b,
    psi_b_at_dual,
    psi_s,
    q_tensor_coords,
)

# cells across the smallest length (radius, eps) the lattice resolves
RESOLVABLE_CELLS = 4


# ---------------------------------------------------------------------------
# domains


@dataclass
class Domain:
    """Cubic lattice of cell centres, spacing h, with the boolean mask of Omega
    and Omega's radius; every cell off Omega holds fixed data.  The mask is
    stored once, as a read-only copy."""

    h: float
    omega_mask: np.ndarray  # (Nx, Ny, Nz) bool
    omega_radius: float

    def __post_init__(self):
        self.omega_mask = np.array(self.omega_mask, dtype=bool)
        self.omega_mask.flags.writeable = False

    @property
    def shape(self):
        return self.omega_mask.shape

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
    def n_omega(self):
        return int(self.omega_mask.sum())

    def padding_cells(self) -> int:
        """Minimum cell distance from any interior cell to the box faces."""
        idx = np.nonzero(self.omega_mask)
        pad = min(
            min(int(ix.min()), self.shape[a] - 1 - int(ix.max())) for a, ix in enumerate(idx)
        )
        return pad


def ball_domain(n: int, h: float, omega_radius: float) -> Domain:
    """Ball Omega of the given radius centred in an n^3 box; every other cell holds data."""
    box = Domain(h, np.zeros((n, n, n), dtype=bool), omega_radius)
    dom = Domain(h, ball_mask(box, np.zeros(3), omega_radius), omega_radius)
    if not dom.omega_mask.any():
        raise ValueError("omega_radius too small: no interior cells")
    return dom


def padded_radius(n: int, h: float, stencil_cells: int) -> float:
    """(n/2 - S - 0.6) h: the largest centred ball in an n^3 box that keeps S =
    stencil_cells cells to the box faces."""
    return (n / 2 - stencil_cells - 0.6) * h


def require_resolvable(length: float, h: float, what: str) -> None:
    """Raise ResolutionMismatch when length is below the resolvable scale RESOLVABLE_CELLS h."""
    if length < RESOLVABLE_CELLS * h:
        raise ResolutionMismatch(f"{what} {length:g} below the resolvable scale "
                                 f"{RESOLVABLE_CELLS}h = {RESOLVABLE_CELLS * h:g}")


def radii_ladder(radii, h: float) -> np.ndarray:
    """radii sorted descending; ValueError when empty or a radius repeats, and
    require_resolvable on the smallest."""
    radii = np.sort(np.asarray(radii, dtype=float))[::-1]
    if radii.size == 0:
        raise ValueError("empty radii ladder")
    if np.any(radii[1:] == radii[:-1]):
        raise ValueError("repeated radius in the radii ladder")
    require_resolvable(radii[-1], h, "smallest radius")
    return radii


def require_same_grid(fields, domain: Domain) -> None:
    """Raise ResolutionMismatch unless every field lies on domain's grid."""
    for f in fields:
        if f.domain.shape != domain.shape or abs(f.domain.h - domain.h) > 1e-12:
            raise ResolutionMismatch("fields and the limit must share a grid")


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


# every boundary preset of boundary_values and the parameters it reads, with their defaults
BOUNDARY_PRESETS = {"constant": {}, "smooth-angle": {"slope": 1.0}, "vortex": {"winding": 1.0}}


def boundary_values(preset: str, domain: Domain, s0: float, m: int, **params) -> np.ndarray:
    """Boundary-datum presets on the s0-orbit, evaluated on the full box.

    constant       the reference state s0 * sigma(x1-axis) everywhere (phi = 0)
    smooth-angle   degree-0 angle field phi = slope * x1
    vortex         phi = winding * atan2(x2, x1): a singular line along x3
    """
    return _orbit_field(boundary_angle(preset, domain, **params), s0, m)


def boundary_angle(preset: str, domain: Domain, **params) -> np.ndarray:
    """Orbit angle phi of a boundary preset on the full box; a key that the
    preset's entry of BOUNDARY_PRESETS lacks raises ValueError."""
    p = preset_params(BOUNDARY_PRESETS, preset, params)
    if preset == "constant":
        return np.zeros(domain.shape)
    x = domain.cell_centers()
    if preset == "smooth-angle":
        return float(p["slope"]) * x[..., 0]
    return float(p["winding"]) * np.arctan2(x[..., 1], x[..., 0])


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


# ---------------------------------------------------------------------------
# convolution


def _check_kernel_grid(sampled: SampledKernel, field: OrderField):
    """Raise ResolutionMismatch unless the kernel was sampled at field's spacing and eps."""
    h = field.domain.h
    if not np.isclose(sampled.h, h, rtol=1e-12, atol=0.0):
        raise ResolutionMismatch(f"kernel stencil spacing {sampled.h:g} != domain spacing {h:g}")
    if not np.isclose(sampled.eps, field.eps, rtol=1e-12, atol=0.0):
        raise ResolutionMismatch(f"kernel eps {sampled.eps:g} != field eps {field.eps:g}")


def require_padding(field: OrderField, sampled: SampledKernel):
    _check_kernel_grid(sampled, field)
    domain = field.domain
    if not domain.omega_mask.any():
        raise ResolutionMismatch("Omega has no cell: no padding to measure")
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


def fast_len(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c >= n: numpy's FFT is fastest on these."""
    best = 1 << max(n - 1, 0).bit_length()  # the least power of 2 >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best, p35 = min(best, p), 3 * p35
        p5 *= 5
    return best


def _padded_shape(n, radius: int) -> tuple:
    """FFT lengths of a linear convolution over a box n with a centred stencil of the
    given radius, cut per axis to S' = min(radius, n_i - 1): offsets |z_i| >= n_i pair no
    two cells of the box.  A source x - z of a cell x in the box lies in [-S', n_i - 1 + S'],
    so a length p_i >= n_i + S' keeps every image that wraps in the zero padding."""
    return tuple(fast_len(k + min(radius, k - 1)) for k in n)


_BOX_AXES = (-3, -2, -1)


def _components_first(u: np.ndarray) -> np.ndarray:
    """A (Nx,Ny,Nz, ...) array as a contiguous (..., Nx,Ny,Nz) one."""
    return np.ascontiguousarray(np.moveaxis(u, (0, 1, 2), _BOX_AXES))


def _components_last(x: np.ndarray) -> np.ndarray:
    """The (Nx,Ny,Nz, ...) view of a (..., Nx,Ny,Nz) array."""
    return np.moveaxis(x, _BOX_AXES, (0, 1, 2))


def _stencil_fft(stencil: np.ndarray, n) -> np.ndarray:
    """Spectrum of a centred (2S+1)^3 stencil, any trailing shape, for a box n: cut to
    the per-axis radius min(S, n_i - 1), wrapped onto _padded_shape(n, S) and stored
    components first, (..., P0, P1, P2 // 2 + 1)."""
    S = len(stencil) // 2
    p = _padded_shape(n, S)
    cut = [min(S, k - 1) for k in n]
    kern = np.zeros(stencil.shape[3:] + p)
    kern[(...,) + np.ix_(*(np.mod(np.arange(-c, c + 1), q) for c, q in zip(cut, p)))] = \
        _components_first(stencil[tuple(slice(S - c, S + c + 1) for c in cut)])
    return np.fft.rfftn(kern, axes=_BOX_AXES)


def _kernel_fft(sampled: SampledKernel, n):
    """The kernel's spectrum for a box n, cached: in scalar mode K = f1 Id, so one
    scalar spectrum (P0, P1, P2 // 2 + 1) of f1; else the (m, m, ...) matrix one."""
    key = ("kfft", n)
    if key not in sampled._cache:
        values = sampled.values
        if sampled.spec.mode == "scalar":
            values = values[..., 0, 0]
        sampled._cache[key] = _stencil_fft(values, n)
    return sampled._cache[key]


def _window_inverse(xf: np.ndarray, p, window) -> np.ndarray:
    """irfftn(xf, s=p) over the box axes at the window's cells only: the inverse runs
    axis by axis, as irfftn does, and keeps the window's rows before the next axis."""
    x = np.fft.ifft(xf, p[0], axis=-3)[..., window[0], :, :]
    x = np.fft.ifft(x, p[1], axis=-2)[..., window[1], :]
    return np.fft.irfft(x, p[2], axis=-1)[..., window[2]]


def _fft_convolve(x: np.ndarray, radius: int, times) -> np.ndarray:
    """Zero-extend x, components first (..., Nx,Ny,Nz), over its box axes to
    _padded_shape(box, radius), map the spectrum through times and invert it at x's
    box only, by _window_inverse with the box as the window."""
    n = x.shape[-3:]
    p = _padded_shape(n, radius)
    return _window_inverse(times(np.fft.rfftn(x, s=p, axes=_BOX_AXES)), p,
                           tuple(slice(0, k) for k in n))


def _times_kernel(kf: np.ndarray, uf: np.ndarray) -> np.ndarray:
    """A kernel spectrum applied to components-first spectra: a scalar spectrum
    multiplies every component, an (m, m) one is a matrix product per frequency."""
    return kf * uf if kf.ndim == 3 else np.einsum("ab...,b...->a...", kf, uf)


def _kernel_convolve(sampled: SampledKernel, u: np.ndarray, h: float) -> np.ndarray:
    """convolve's FFT path, without its checks; u's box may be any window."""
    kf = _kernel_fft(sampled, u.shape[:3])
    return _components_last(_fft_convolve(_components_first(u), sampled.radius_cells,
                                          lambda uf: _times_kernel(kf, uf)) * h**3)


def _box_pass(sampled: SampledKernel, u: np.ndarray, h: float, window=None) -> tuple:
    """(sum_box u.(K_eps*u), (K_eps*u)[window]) from u's forward spectra, u (Nx,Ny,Nz,m).

    The sum is Parseval's, (h^3/N) sum_k Re conj(U_k).K(k) U_k with N = P0 P1 P2:
    the half spectrum holds k2 <= P2 // 2, so the k2 = 0 plane counts once, as does
    the Nyquist plane when P2 is even, and every other plane twice, for its mirror.
    The window, three slices of the box, gets convolve's values by _window_inverse;
    without one the second item is None.  A scalar spectrum runs one component at a
    time, an (m, m) one on all components at once.
    """
    n, m = u.shape[:3], u.shape[-1]
    p = _padded_shape(n, sampled.radius_cells)
    kf = _kernel_fft(sampled, n)
    dot, parts = 0.0, []
    for c in ([slice(a, a + 1) for a in range(m)] if kf.ndim == 3 else [slice(None)]):
        xf = np.fft.rfftn(_components_first(u[..., c]), s=p, axes=_BOX_AXES)
        kx = _times_kernel(kf, xf)
        t = xf.real * kx.real
        t += xf.imag * kx.imag  # Re conj(U_k).K(k) U_k, summed pairwise by np.sum
        dot += 2.0 * np.sum(t) - np.sum(t[..., 0])
        if p[2] % 2 == 0:
            dot -= np.sum(t[..., -1])
        if window is not None:
            parts.append(_window_inverse(kx, p, window))
    v = _components_last(np.concatenate(parts) * h**3) if parts else None
    return float(dot * h**3 / np.prod(p)), v


def convolve(sampled: SampledKernel, field_values: np.ndarray, h: float):
    """(K_eps * u)(x) = sum_z K_eps(z) u(x - z) h^3 with zero extension off the box."""
    u = np.asarray(field_values, dtype=float)
    m = sampled.m
    if u.shape[-1] != m:
        raise ResolutionMismatch(f"field has {u.shape[-1]} components, kernel expects {m}")
    return _kernel_convolve(sampled, u, h)


def _direct_convolve(sampled: SampledKernel, u: np.ndarray, h: float) -> np.ndarray:
    """convolve by its definition, one stencil offset at a time: u(x) meets K(z) at
    x + z.  The reference the FFT paths are tested against."""
    out = np.zeros_like(u)
    for kern, lo, hi in _stencil_shifts(sampled, u.shape[:3]):
        out[hi] += u[lo] @ kern.T
    return out * h**3


def convolve_mask(sampled: SampledKernel, mask: np.ndarray, h: float) -> np.ndarray:
    """(K_eps * 1_G)(x) h^3: the (Nx,Ny,Nz) field of f1 * 1_G in scalar mode, where
    K = f1 Id, and an (Nx,Ny,Nz,m,m) matrix field otherwise."""
    kf = _kernel_fft(sampled, mask.shape)
    out = np.ascontiguousarray(_components_last(
        _fft_convolve(mask.astype(float), sampled.radius_cells, lambda mf: kf * mf)))
    out *= h**3
    return out


def convolve_stencil(stencil: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_z stencil(z) u(x - z) for a centred scalar (2S+1)^3 stencil, with zero
    extension off the box; u may carry trailing component axes."""
    u = np.asarray(values, dtype=float)
    return _components_last(_fft_convolve(_components_first(u), len(stencil) // 2,
                                          lambda uf: _stencil_fft(stencil, u.shape[:3]) * uf))


def box_moment_field(sampled: SampledKernel, domain: Domain) -> np.ndarray:
    """S_B(x) = sum_{y in box} K_eps(x-y) h^3, shaped as convolve_mask's field (a
    scalar per cell in scalar mode); equals the stencil moment deep inside."""
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
    interaction: float
    bulk: float
    c_eps: float
    total: float


def _quadratic_sum(u: np.ndarray, S: np.ndarray, mask=None) -> float:
    """sum over cells of u(x) . S(x) u(x), optionally restricted to a mask; a scalar
    field S, shaped like u without its component axis, gives sum S |u|^2."""
    m = u.shape[-1]
    if mask is None:  # views of the whole box, no boolean-index copies
        S, u = S.reshape((-1,) + S.shape[3:]), u.reshape(-1, m)
    else:
        S, u = S[mask], u[mask]
    if S.ndim == 1:  # np.sum sums pairwise: the box sum is far larger than the energies
        return float(np.sum(S * np.einsum("na,na->n", u, u)))
    return float(np.einsum("nab,na,nb->", S, u, u))


def _interaction_sums(field: OrderField, sampled: SampledKernel, region=None) -> tuple:
    """(sum_G u.S_G u, sum_G u.(K_eps * u 1_G)) h^3, S_G = K_eps * 1_G.

    The non-local form over G x G is (quad - cross) / (2 eps^2).  G is the
    whole box when region is None, and S_G the cached box moment field;
    otherwise G is the cell mask region, and S_G its convolve_mask.  The
    cross sum is the box sum of u 1_G.(K_eps * u 1_G), a Parseval sum of the
    forward spectra of u 1_G: no inverse transform.
    """
    u, dom = field.values, field.domain
    h3 = dom.cell_volume
    if region is None:
        S_G, u_G = box_moment_field(sampled, dom), u
    else:
        S_G, u_G = convolve_mask(sampled, region, dom.h), np.where(region[..., None], u, 0.0)
    return _quadratic_sum(u, S_G, region) * h3, _box_pass(sampled, u_G, dom.h)[0] * h3


@dataclass
class OmegaSplit:
    """A field split as u = u_Omega + u_c, u_c its values off Omega, held fixed.

    K_eps is even and symmetric, so for every u_Omega the box form has an
    Omega part, the cross term 2 u_Omega.w with w = (K_eps*u_c)|Omega, and
    const = (sum_{off Omega} u_c.S_B u_c - sum_box u_c.(K_eps*u_c)) h^3,
    the box sums of u_c alone.  Both are taken from the forward spectra of
    u_c less its box mean (the form is blind to a constant): const as a
    Parseval sum and w by an inverse pruned to Omega's bounding window.
    Omega is padded, so S_B = intK_disc there and the form's
    sum_Omega u.S_B u cancels psi_b's -(1/2) sum_Omega intK u.u: given w and
    const, values on Omega cost one FFT convolution over Omega's bounding
    window and sums over Omega; no array of the box's size.
    """

    sampled: SampledKernel
    h: float
    eps: float
    inner: np.ndarray  # Omega's cells in its bounding window
    w: np.ndarray  # (K_eps*u_c) on Omega
    const: float

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """K_eps*u on Omega for the field with values u there: (K_eps*u_Omega)|Omega + w."""
        x = np.zeros(self.inner.shape + u.shape[-1:])
        x[self.inner] = u
        return _kernel_convolve(self.sampled, x, self.h)[self.inner] + self.w

    def energy(self, bulk: BulkPotential, u: np.ndarray, v: np.ndarray, b: np.ndarray,
               lnz: np.ndarray) -> float:
        """energy_oscillation's total for the field with values u on Omega, v = K_eps*u,
        the duals b = Lambda(u) there and lnz = lnZ(b): psi_s(u) = b.u - lnZ(b)."""
        h3 = self.h**3
        cross = float(np.einsum("na,na->", u, v + self.w)) * h3
        local = float(np.sum(np.einsum("...a,...a->...", b, u) - lnz + bulk.c0)) * h3
        return (0.5 * (self.const - cross) + local) / self.eps**2


def omega_split(field: OrderField, sampled: SampledKernel) -> OmegaSplit:
    """field's OmegaSplit, from one _box_pass of r = u_c - c, c the box mean of u_c:
    const takes its Parseval sum, and w = (K_eps*r)|Omega + S_B c the inverse pruned
    to Omega's bounding window.  Raises ResolutionMismatch unless Omega has cells
    and is padded by the stencil radius."""
    dom = field.domain
    require_padding(field, sampled)
    om = dom.omega_mask
    window = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(om))
    # const, a form of u_c, is blind to a constant c: the sums of r = u_c - c are
    # oscillation-sized where those of u_c cancel to round-off; K_eps*c = S_B c
    r = np.where(om[..., None], 0.0, field.values)
    c = np.einsum("xyza->a", r) / om.size  # einsum sums these axes faster than mean does
    r -= c
    dot, v = _box_pass(sampled, r, dom.h, window)
    S_B = box_moment_field(sampled, dom)
    S_om = S_B[om]
    w = v[om[window]] + (S_om[:, None] * c if S_om.ndim == 1 else S_om @ c)
    return OmegaSplit(sampled, dom.h, field.eps, om[window], w,
                      (_quadratic_sum(r, S_B) - dot) * dom.cell_volume)


def energy_primal(field: OrderField, sampled: SampledKernel,
                  bulk: BulkPotential) -> EnergyBreakdown:
    """-(1/2eps^2) double-sum u.K_eps u + (1/eps^2) sum_Omega psi_s + C_eps.

    C_eps = (c0|Omega| + (1/2)(sum_box u.S_B u - sum_Omega u.intK_disc u)) h^3/eps^2,
    S_B the box moment field, makes the whole-box form equal the oscillation
    form exactly.
    """
    dom = field.domain
    require_padding(field, sampled)
    u, om = field.values, dom.omega_mask
    eps2 = field.eps**2
    h3 = dom.cell_volume
    interaction = -0.5 / eps2 * _box_pass(sampled, u, dom.h)[0] * h3
    bulk_term = float(np.sum(psi_s(bulk.model, u[om]))) * h3 / eps2
    quad = _quadratic_sum(u, box_moment_field(sampled, dom)) - float(
        np.einsum("na,ab,nb->", u[om], sampled.intK_disc, u[om]))
    c = (bulk.c0 * dom.n_omega + 0.5 * quad) * h3 / eps2
    return EnergyBreakdown(interaction, bulk_term, c, interaction + bulk_term + c)


def _pairwise_interaction(
    values: np.ndarray, sampled: SampledKernel, h: float, mask=None
) -> float:
    """(1/4) sum over stencil pairs of K_eps(x-y)(u(x)-u(y)).(u(x)-u(y)) h^6.

    Direct shift-based evaluation of the definition, the reference local_form is
    tested against; with a mask, both cells of every counted pair must lie in the mask.
    """
    acc = 0.0
    for kern, lo, hi in _stencil_shifts(sampled, values.shape[:3]):
        du = values[lo] - values[hi]
        if mask is not None:
            du = du * (mask[lo] & mask[hi])[..., None]
        acc += float(np.einsum("xyza,ab,xyzb->", du, kern, du))
    return 0.25 * acc * h**6


def energy_oscillation(field: OrderField, sampled: SampledKernel,
                       bulk: BulkPotential) -> EnergyBreakdown:
    """(1/4eps^2) double-sum K_eps (u(x)-u(y))^tensor2 + (1/eps^2) sum_Omega psi_b.

    The interaction is local_form's over the whole box.
    """
    require_padding(field, sampled)
    pair = local_form(field, None, sampled)
    dom, eps2 = field.domain, field.eps**2
    u_om = field.values[dom.omega_mask]
    b = dual_map(bulk.model, u_om)
    bulk_term = float(np.sum(psi_b_at_dual(bulk, u_om, b))) * dom.cell_volume / eps2
    return EnergyBreakdown(pair, bulk_term, 0.0, pair + bulk_term)


def local_form(field: OrderField, region: np.ndarray | None, sampled: SampledKernel) -> float:
    """Interaction part of F_eps(u, G): (1/4eps^2) double sum over G x G, G the cell
    mask region, or the whole box when region is None.

    The square expands through _interaction_sums' convolutions.
    """
    _check_kernel_grid(sampled, field)
    if region is not None:
        region = np.asarray(region, dtype=bool)
        if region.shape != field.domain.shape:
            raise ResolutionMismatch("region mask shape differs from the domain box")
    quad, cross = _interaction_sums(field, sampled, region)
    return 0.5 * (quad - cross) / field.eps**2


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
# field dumps

# after the magic: shape, m, geometry code 0, h, eps, Omega's radius; then one
# byte per cell, 0 on Omega and 1 off it, and the values as little-endian doubles
_MAGIC, _HEADER = b"NLLC2", struct.Struct("<5I3d")


def write_nllc1(path, field: OrderField):
    """Dump a field in the NLLC2 layout."""
    dom = field.domain
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(*dom.shape, field.m, 0, dom.h, field.eps, dom.omega_radius))
        fh.write((~dom.omega_mask).astype(np.uint8).tobytes(order="C"))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes(order="C"))


def read_nllc1(path) -> OrderField:
    """Read a dump of write_nllc1.

    Raises DumpFormatError on a magic other than NLLC2, a geometry code other
    than 0, an h or eps that is not finite and > 0, a negative or non-finite
    radius of Omega, a cell byte other than 0 and 1, and on a file whose size
    is not the one its header declares (a truncated dump or trailing bytes).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:5]
    if magic != _MAGIC:
        raise DumpFormatError(f"bad magic {magic!r}: not an NLLC2 dump")
    header = 5 + _HEADER.size
    if len(data) < header:
        raise DumpFormatError(f"NLLC2 dump of {len(data)} bytes is shorter than its header")
    nx, ny, nz, m, code, h, eps, radius = _HEADER.unpack_from(data, 5)
    if code != 0:
        raise DumpFormatError(f"unknown geometry code {code}")
    if not (0 < h < np.inf and 0 < eps < np.inf and 0 <= radius < np.inf):  # NaN fails too
        raise DumpFormatError(f"impossible header: h = {h!r}, eps = {eps!r}, Omega's radius {radius!r}")
    cells = nx * ny * nz
    expect = header + cells * (1 + 8 * m)
    if len(data) != expect:
        raise DumpFormatError(f"dump of {len(data)} bytes; its header declares {expect}")
    off = np.frombuffer(data, np.uint8, cells, header).reshape(nx, ny, nz)
    if off.max(initial=0) > 1:
        raise DumpFormatError(f"cell byte {off.max()} is neither 0 nor 1")
    values = np.frombuffer(data, "<f8", cells * m, header + cells).reshape(nx, ny, nz, m).copy()
    return OrderField(Domain(h, off == 0, radius), eps, values)
