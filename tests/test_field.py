import struct
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nllc import field as fld
from nllc import kernel, potential
from nllc.errors import DumpFormatError, LayerTooThin, ResolutionMismatch

S1 = potential.make_s1_model()


def setup_case(n=20, h=0.1, eps=0.5, preset="annulus", omega_radius=None,
               make_domain=fld.ball_domain):
    spec = kernel.kernel_preset(preset, 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    sampled = kernel.sample_on_lattice(spec, eps, h)
    if omega_radius is None:
        omega_radius = (n / 2 - sampled.radius_cells - 0.6) * h
    dom = make_domain(n, h, omega_radius)
    bulk = potential.make_bulk_potential(S1, sampled.intK_disc)
    return dom, sampled, bulk


def random_field(dom, eps, s0, seed=0, rough=0.3):
    rng = np.random.default_rng(seed)
    bnd = fld.boundary_values("smooth-angle", dom, s0, 2, slope=1.5)
    noise = rough * s0 * rng.standard_normal(dom.shape + (2,))
    vals = bnd + noise * dom.omega_mask[..., None]
    norms = np.linalg.norm(vals, axis=-1, keepdims=True)
    cap = 0.9 * S1.sigma_max
    vals = np.where(norms > cap, vals * cap / norms, vals)
    return fld.OrderField(dom, eps, vals)


DOMAINS = pytest.mark.parametrize("make_domain", [fld.ball_domain, fld.cube_domain],
                                  ids=["ball", "cube"])


@DOMAINS
def test_primal_oscillation_identity(make_domain):
    # the two energy forms agree exactly (to round-off) through C_eps
    dom, sampled, bulk = setup_case(make_domain=make_domain)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=1)
    ep = fld.energy_primal(f, sampled, bulk)
    eo = fld.energy_oscillation(f, sampled, bulk)
    scale = max(abs(ep.interaction), abs(ep.c_eps), 1.0)
    assert ep.total == pytest.approx(eo.total, abs=1e-10 * scale)


def test_oscillation_pairwise_matches_fast():
    dom, sampled, bulk = setup_case(n=14, omega_radius=0.14)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=2)
    fast = fld.energy_oscillation(f, sampled, bulk, method="fast")
    slow = fld.energy_oscillation(f, sampled, bulk, method="pairwise")
    assert fast.interaction == pytest.approx(slow.interaction, rel=1e-11)


def test_convolve_fft_matches_direct():
    dom, sampled, _ = setup_case(n=14, omega_radius=0.14)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(dom.shape + (2,))
    a = fld.convolve(sampled, u, dom.h, method="fft")
    b = fld.convolve(sampled, u, dom.h, method="direct")
    assert np.allclose(a, b, atol=1e-12 * max(1.0, np.abs(a).max()))


def test_convolve_fft_matches_direct_on_a_box_smaller_than_the_stencil():
    # the spectrum keeps only offsets shorter than the box, axis by axis
    _, sampled, _ = setup_case(n=14, omega_radius=0.14)
    S = sampled.radius_cells
    u = np.random.default_rng(13).standard_normal((2, S, 2 * S + 3, 2))
    a = fld.convolve(sampled, u, sampled.h, method="fft")
    b = fld.convolve(sampled, u, sampled.h, method="direct")
    assert np.allclose(a, b, atol=1e-12 * np.abs(b).max())


def test_local_form_pairwise_matches_fast():
    dom, sampled, bulk = setup_case(n=14, omega_radius=0.14)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=4)
    region = fld.ball_mask(dom, (0.05, 0.0, 0.0), 0.35)
    fast = fld.local_form(f, region, sampled, method="fast")
    slow = fld.local_form(f, region, sampled, method="pairwise")
    assert fast == pytest.approx(slow, rel=1e-11)


def test_local_energy_full_box_is_total_oscillation():
    dom, sampled, bulk = setup_case()
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=5)
    full = np.ones(dom.shape, dtype=bool)
    loc = fld.local_energy(f, full, sampled, bulk)
    osc = fld.energy_oscillation(f, sampled, bulk)
    assert loc == pytest.approx(osc.total, rel=1e-11)


def test_local_energy_monotone_in_region():
    dom, sampled, bulk = setup_case()
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=6)
    small = fld.ball_mask(dom, np.zeros(3), 0.3)
    big = fld.ball_mask(dom, np.zeros(3), 0.5)
    assert fld.local_energy(f, small, sampled, bulk) <= fld.local_energy(
        f, big, sampled, bulk
    ) + 1e-12


def test_local_energy_needs_no_padding():
    # region pairs are all in-box, so a huge stencil overhang is fine while
    # the global forms refuse to run
    dom, sampled, bulk = setup_case(n=14, omega_radius=0.65)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=7)
    with pytest.raises(ResolutionMismatch):
        fld.energy_primal(f, sampled, bulk)
    region = fld.ball_mask(dom, np.zeros(3), 0.3)
    val = fld.local_energy(f, region, sampled, bulk)
    assert np.isfinite(val)


def test_scaling_identity_lattice_aligned():
    dom, sampled, bulk = setup_case()
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=8)
    lhs, rhs, gap = fld.scaling_check(f, np.zeros(3), 0.5, sampled, bulk)
    # centre on a lattice point: resampling is bitwise, identity near-exact
    assert abs(gap) <= 1e-9 * max(abs(lhs), 1.0)


def test_scaling_identity_rho_one_exact():
    dom, sampled, bulk = setup_case()
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=9)
    lhs, rhs, gap = fld.scaling_check(f, np.zeros(3), 1.0, sampled, bulk)
    assert abs(gap) <= 1e-11 * max(abs(lhs), 1.0)


def test_nllc1_roundtrip_bitwise():
    import tempfile, os

    dom, sampled, bulk = setup_case(n=14, omega_radius=0.14)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=10)
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "f.nllc1")
        fld.write_nllc1(p, f)
        g = fld.read_nllc1(p)
    assert g.eps == f.eps
    assert g.domain.h == dom.h
    assert np.array_equal(g.domain.region, dom.region)
    assert np.array_equal(g.values, f.values)


@DOMAINS
def test_nllc_roundtrip_keeps_geometry_and_size(make_domain, tmp_path):
    # a dump keeps the domain's geometry and Omega's size, and writing what
    # was read gives the same bytes
    dom = make_domain(14, 0.1, 0.25)
    f = random_field(dom, 0.5, S1.sigma_max * 0.8, seed=11)
    p, q = tmp_path / "f.nllc1", tmp_path / "g.nllc1"
    fld.write_nllc1(p, f)
    g = fld.read_nllc1(p)
    assert (g.domain.geometry, g.domain.omega_radius) == (dom.geometry, dom.omega_radius)
    assert np.array_equal(g.domain.region, dom.region)
    assert np.array_equal(g.values, f.values)
    fld.write_nllc1(q, g)
    assert q.read_bytes() == p.read_bytes()


def test_nllc1_dumps_still_read(tmp_path):
    # the first format carried no geometry: its dumps read back as a ball of radius 0
    dom = fld.cube_domain(6, 0.1, 0.15)
    f = random_field(dom, 0.4, S1.sigma_max * 0.8, seed=12)
    p = tmp_path / "old.nllc1"
    p.write_bytes(b"NLLC1" + struct.pack("<4I", *dom.shape, 2) + struct.pack("<2d", 0.1, 0.4)
                  + dom.region.tobytes() + f.values.astype("<f8").tobytes())
    g = fld.read_nllc1(p)
    assert (g.domain.geometry, g.domain.omega_radius, g.domain.h, g.eps) == ("ball", 0.0, 0.1, 0.4)
    assert np.array_equal(g.domain.region, dom.region)
    assert np.array_equal(g.values, f.values)


def test_nllc1_bad_magic():
    import tempfile, os

    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "junk.bin")
        with open(p, "wb") as fh:
            fh.write(b"GARBAGE")
        with pytest.raises(ValueError):
            fld.read_nllc1(p)


@pytest.mark.parametrize("damage", ["truncate", "append"])
def test_nllc1_size_mismatch_is_a_format_error(damage):
    import tempfile, os

    dom, _, bulk = setup_case(n=14, omega_radius=0.14)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=10)
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "f.nllc1")
        fld.write_nllc1(p, f)
        with open(p, "rb") as fh:
            data = fh.read()
        with open(p, "wb") as fh:
            fh.write(data[:-8] if damage == "truncate" else data + b"\0")
        with pytest.raises(DumpFormatError):
            fld.read_nllc1(p)


@DOMAINS
def test_finite_thickness_exact_when_no_exterior(make_domain):
    # with layer_thickness = inf there is no exterior and the restricted
    # interaction equals the full one
    dom, sampled, bulk = setup_case(make_domain=make_domain)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=11)
    full = fld.energy_primal(f, sampled, bulk)
    thin = fld.finite_thickness_energy(f, sampled, bulk)
    assert thin.total == pytest.approx(full.total, rel=1e-12)


def test_finite_thickness_layer_guard():
    spec = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    eps, h, n = 0.5, 0.1, 20
    sampled = kernel.sample_on_lattice(spec, eps, h)
    bulk = potential.make_bulk_potential(S1, sampled.intK_disc)
    dom = fld.ball_domain(n, h, 0.35, layer_thickness=0.01)
    f = random_field(dom, eps, bulk.manifold.s0, seed=12)
    with pytest.raises(LayerTooThin):
        fld.finite_thickness_energy(f, sampled, bulk)


def test_finite_thickness_differs_by_exterior_pairs_exactly():
    # E - E_tilde is exactly the interaction of pairs touching the exterior
    spec = kernel.kernel_preset(
        "annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0, "tau": 0.3}
    )
    eps, h, n = 0.5, 0.1, 24
    sampled = kernel.sample_on_lattice(spec, eps, h)
    bulk = potential.make_bulk_potential(S1, sampled.intK_disc)
    dom = fld.ball_domain(n, h, 0.3, layer_thickness=0.45)
    f = random_field(dom, eps, bulk.manifold.s0, seed=13)
    full = fld.energy_primal(f, sampled, bulk)
    thin = fld.finite_thickness_energy(f, sampled, bulk)
    oe = dom.omega_eps_mask
    u_oe = np.where(oe[..., None], f.values, 0.0)
    v_full = fld.convolve(sampled, f.values, dom.h)
    v_oe = fld.convolve(sampled, u_oe, dom.h)
    i_full = -0.5 / eps**2 * float(np.sum(f.values * v_full)) * dom.cell_volume
    i_oe = -0.5 / eps**2 * float(np.einsum("na,na->", f.values[oe], v_oe[oe])) * dom.cell_volume
    omitted = i_full - i_oe
    scale = max(abs(full.total), abs(omitted), 1.0)
    assert thin.total - full.total == pytest.approx(-omitted, abs=1e-11 * scale)
    # and the restricted energy is bounded below by the full one minus the
    # omitted interaction
    assert thin.total >= full.total - abs(omitted) - 1e-11 * scale


def test_h_eps_profile_decreasing_in_thickness():
    spec = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    sups = []
    for lt in (0.1, 0.2, 0.3):
        dom = fld.ball_domain(24, 0.1, 0.3, layer_thickness=lt)
        _, sup = fld.h_eps_profile(dom, spec, 0.5)
        sups.append(sup)
    assert sups[0] >= sups[1] >= sups[2]
    # compact support: a thick enough layer kills the tail entirely
    dom = fld.ball_domain(24, 0.1, 0.3, layer_thickness=np.inf)
    _, sup = fld.h_eps_profile(dom, spec, 0.5)
    assert sup == 0.0


def test_cube_domain_regions_padding_and_layer():
    spec = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    n, h, half = 20, 0.1, 0.351
    c = np.abs((np.arange(n) - (n - 1) / 2.0) * h)
    dist = np.maximum.reduce(np.meshgrid(c, c, c, indexing="ij"))
    sups = []
    for lt in (0.095, 0.195, 0.295):
        dom = fld.cube_domain(n, h, half, layer_thickness=lt)
        assert dom.geometry == "cube"
        assert np.array_equal(dom.omega_mask, dist <= half)
        assert np.array_equal(dom.layer_mask, (dist > half) & (dist <= half + lt))
        assert np.array_equal(dom.exterior_mask, dist > half + lt)
        # interior cells sit at |x|_inf <= 0.35, i.e. indices 6..13 per axis
        assert dom.padding_cells() == 6
        assert lt <= dom.layer_thickness() <= lt + h
        _, sup = fld.h_eps_profile(dom, spec, 0.5)
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2] > 0.0
    dom = fld.cube_domain(n, h, half)
    assert dom.layer_thickness() == np.inf
    assert fld.h_eps_profile(dom, spec, 0.5)[1] == 0.0


def test_boundary_presets_shapes_and_norms():
    dom = fld.ball_domain(12, 0.1, 0.35)
    s0 = 0.6
    for preset, kw in (
        ("constant", {}),
        ("smooth-angle", {"slope": 2.0}),
        ("vortex", {"winding": 1.0}),
    ):
        for m in (2, 5):
            b = fld.boundary_values(preset, dom, s0, m, **kw)
            assert b.shape == dom.shape + (m,)
            assert np.allclose(np.linalg.norm(b, axis=-1), s0, atol=1e-12)
    with pytest.raises(ValueError):
        fld.boundary_values("nope", dom, s0, 2)


def test_make_field_interior_modes():
    dom = fld.ball_domain(10, 0.1, 0.3)
    bnd = fld.boundary_values("constant", dom, 0.5, 2)
    f0 = fld.make_field(dom, 0.3, bnd)
    assert np.array_equal(f0.values, bnd)
    f1 = fld.make_field(dom, 0.3, bnd, interior=np.array([0.1, 0.2]))
    assert np.allclose(f1.values[dom.omega_mask], [0.1, 0.2])
    assert np.array_equal(f1.values[~dom.omega_mask], bnd[~dom.omega_mask])


def test_trilinear_on_site_is_bitwise():
    dom = fld.ball_domain(10, 0.1, 0.3)
    rng = np.random.default_rng(14)
    vals = rng.standard_normal(dom.shape + (2,))
    pts = dom.cell_centers().reshape(-1, 3)[::7]
    out = fld.trilinear_sample(vals, dom, pts)
    assert np.array_equal(out, vals.reshape(-1, 2)[::7])


# Window split against the whole box.  h = 0.1 and eps = 0.3 give a stencil
# radius of 5 cells, so Omega trimmed to a window of 5 cells or fewer on an
# axis also exercises the stencil cut.
SPLIT_H, SPLIT_EPS, SPLIT_N = 0.1, 0.3, 18
SPLIT_CASES = {
    "s1": (potential.make_s1_model, "gaussian", 2, {"strength": 4.0}),
    "s2": (potential.make_s2_model, "gaussian-nematic", 5,
           {"strength": 8.0, "f2": 0.3, "f3": -0.2}),
}


@lru_cache(maxsize=None)
def split_case(name):
    make_model, preset, m, params = SPLIT_CASES[name]
    model = make_model()
    spec = kernel.kernel_preset(preset, m, dict(params, width=0.75, cut=2.5))
    sampled = kernel.sample_on_lattice(spec, SPLIT_EPS, SPLIT_H)
    return model, sampled, potential.make_bulk_potential(model, sampled.intK_disc)


def admissible(model, shape, rng):
    """Values strictly inside the moment set: Lambda^-1 of random duals."""
    b = rng.uniform(-4.0, 4.0, (int(np.prod(shape)), model.m))
    return potential.lambda_inverse(model, b).reshape(shape + (model.m,))


@settings(max_examples=24, deadline=None)
@given(case=st.sampled_from(sorted(SPLIT_CASES)),
       make_domain=st.sampled_from([fld.ball_domain, fld.cube_domain]),
       size=st.floats(0.09, 0.35), trim=st.tuples(*[st.integers(0, 7)] * 3),
       seed=st.integers(0, 2**32 - 1))
def test_omega_split_matches_the_whole_box(case, make_domain, size, trim, seed):
    # values on Omega other than the ones the split was taken from: the split
    # depends only on the values off Omega
    model, sampled, bulk = split_case(case)
    dom = make_domain(SPLIT_N, SPLIT_H, size)
    om = dom.omega_mask
    for axis, t in enumerate(trim):  # drop the top t planes of Omega: a non-cubic window
        idx = np.nonzero(om)[axis]
        cut = np.arange(SPLIT_N) > max(idx.max() - t, idx.min())
        dom.region[om & np.expand_dims(cut, [a for a in range(3) if a != axis])] = fld.LAYER
        om = dom.omega_mask
    rng = np.random.default_rng(seed)
    start = fld.OrderField(dom, SPLIT_EPS, admissible(model, dom.shape, rng))
    split = fld.omega_split(start, sampled)
    f = start.copy()
    f.values[om] = admissible(model, (int(om.sum()),), rng)
    u = f.values[om]

    v = split.convolve(u)
    v_box = fld.convolve(sampled, f.values, dom.h)[om]
    assert np.abs(v - v_box).max() <= 1e-12 * np.abs(v_box).max()

    energy = split.energy(bulk, u, v, potential.dual_map(model, u))
    box = fld.energy_oscillation(f, sampled, bulk)
    primal = fld.energy_primal(f, sampled, bulk)
    scale = max(abs(primal.interaction), abs(primal.c_eps), 1.0)
    assert energy.interaction == pytest.approx(box.interaction, abs=1e-12 * scale)
    assert energy.total == pytest.approx(box.total, abs=1e-12 * scale)
