import struct
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nllc import field as fld
from nllc import kernel, potential, solver
from nllc.errors import DumpFormatError, ResolutionMismatch

S1 = potential.make_s1_model()


def setup_case(n=20, h=0.1, eps=0.5, preset="annulus", omega_radius=None,
               make_domain=fld.ball_domain):
    spec = kernel.kernel_preset(preset, 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    sampled = kernel.sample_on_lattice(spec, eps, h)
    if omega_radius is None:
        omega_radius = fld.padded_radius(n, h, sampled.radius_cells)
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


def test_unknown_method_raises_in_both_oscillation_forms():
    dom, sampled, bulk = setup_case(n=14, omega_radius=0.14)
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=4)
    with pytest.raises(ValueError, match="pairwse"):
        fld.energy_oscillation(f, sampled, bulk, method="pairwse")
    with pytest.raises(ValueError, match="pairwse"):
        fld.local_form(f, np.ones(dom.shape, dtype=bool), sampled, method="pairwse")


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


def test_scaling_check_refuses_an_off_lattice_center():
    dom, sampled, bulk = setup_case()
    f = random_field(dom, 0.5, bulk.manifold.s0, seed=8)
    with pytest.raises(ResolutionMismatch):
        fld.scaling_check(f, np.array([0.5 * dom.h, 0.0, 0.0]), 0.5, sampled, bulk)


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


@pytest.mark.parametrize("header", [
    {"h": -0.1}, {"h": 0.0}, {"h": np.inf}, {"eps": np.nan}, {"eps": -0.4}, {"eps": np.inf},
    {"size": -0.15}, {"size": np.nan}, {"size": np.inf}, {"tag": 7},
], ids=lambda header: "-".join(f"{k}={v}" for k, v in header.items()))
def test_nllc_dump_with_an_impossible_header_is_a_format_error(tmp_path, header):
    # each of these read back without error, into a domain no builder makes
    dom = fld.cube_domain(6, 0.1, 0.15)
    f = random_field(dom, 0.4, S1.sigma_max * 0.8, seed=12)
    v = {"h": 0.1, "eps": 0.4, "size": 0.15, "tag": fld.EXTERIOR, **header}
    region = dom.region.copy()
    region[0, 0, 0] = v["tag"]
    p = tmp_path / "bad.nllc1"
    p.write_bytes(b"NLLC2" + struct.pack("<5I3d", *dom.shape, 2, 1, v["h"], v["eps"], v["size"])
                  + region.tobytes() + f.values.astype("<f8").tobytes())
    with pytest.raises(DumpFormatError):
        fld.read_nllc1(p)


def test_h_eps_profile_decreasing_in_thickness():
    spec = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    dom = fld.ball_domain(24, 0.1, 0.3)
    d = dom.centre_distance()
    # the data cut to zero beyond a layer of thickness lt around Omega
    sups = [fld.h_eps_profile(dom, spec, 0.5, d > 0.3 + lt)[1] for lt in (0.1, 0.2, 0.3)]
    assert sups[0] >= sups[1] >= sups[2]
    # no cut cell: the layer is infinite and there is no tail
    assert fld.h_eps_profile(dom, spec, 0.5, np.zeros(dom.shape, dtype=bool))[1] == 0.0


def test_cube_domain_regions_padding_and_layer():
    spec = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    n, h, half = 20, 0.1, 0.351
    c = np.abs((np.arange(n) - (n - 1) / 2.0) * h)
    dist = np.maximum.reduce(np.meshgrid(c, c, c, indexing="ij"))
    dom = fld.cube_domain(n, h, half)
    assert dom.geometry == "cube"
    assert np.array_equal(dom.omega_mask, dist <= half)
    assert np.array_equal(dom.region == fld.LAYER, dist > half)
    # interior cells sit at |x|_inf <= 0.35, i.e. indices 6..13 per axis
    assert dom.padding_cells() == 6
    d = dom.centre_distance()
    sups = [fld.h_eps_profile(dom, spec, 0.5, d > half + lt)[1] for lt in (0.095, 0.195, 0.295)]
    assert sups[0] > sups[1] > sups[2] > 0.0
    assert fld.h_eps_profile(dom, spec, 0.5, np.zeros(dom.shape, dtype=bool))[1] == 0.0


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


def test_boundary_values_returns_a_fresh_array():
    # a field holds the datum's array itself, so each call must return its own
    dom = fld.ball_domain(10, 0.1, 0.3)
    f = fld.OrderField(dom, 0.3, fld.boundary_values("constant", dom, 0.5, 2))
    f.values[dom.omega_mask] = 0.0
    bnd = fld.boundary_values("constant", dom, 0.5, 2)
    assert bnd.dtype == float and not np.shares_memory(bnd, f.values)
    assert np.allclose(np.linalg.norm(bnd, axis=-1), 0.5, atol=1e-12)


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

    b = potential.dual_map(model, u)
    energy = split.energy(bulk, u, v, b, potential.log_partition(model, b))
    box = fld.energy_oscillation(f, sampled, bulk)
    primal = fld.energy_primal(f, sampled, bulk)
    scale = max(abs(primal.interaction), abs(primal.c_eps), 1.0)
    assert energy == pytest.approx(box.total, abs=1e-12 * scale)


def test_omega_split_needs_a_padded_omega():
    # S_B = intK_disc on Omega, which the split's energy relies on, needs every
    # stencil inside the box
    model, sampled, _ = split_case("s1")
    dom = fld.ball_domain(SPLIT_N, SPLIT_H, 0.5)
    assert dom.padding_cells() == sampled.radius_cells - 1
    f = fld.OrderField(dom, SPLIT_EPS, admissible(model, dom.shape, np.random.default_rng(0)))
    with pytest.raises(ResolutionMismatch):
        fld.omega_split(f, sampled)


@pytest.mark.parametrize("run", [
    lambda f, sampled, bulk: fld.energy_primal(f, sampled, bulk),
    lambda f, sampled, bulk: fld.energy_oscillation(f, sampled, bulk),
    lambda f, sampled, bulk: solver.el_fixed_point(f, sampled, bulk),
], ids=["energy_primal", "energy_oscillation", "el_fixed_point"])
def test_an_empty_omega_is_a_resolution_mismatch(run):
    # a box with no Omega cell has no padding to measure
    model, sampled, bulk = split_case("s1")
    dom = fld.ball_domain(SPLIT_N, SPLIT_H, 0.3)
    dom.region[dom.omega_mask] = fld.LAYER
    f = fld.OrderField(dom, SPLIT_EPS, admissible(model, dom.shape, np.random.default_rng(0)))
    with pytest.raises(ResolutionMismatch, match="no cell"):
        run(f, sampled, bulk)


@pytest.mark.parametrize("run", [
    lambda f, sampled, bulk: fld.omega_split(f, sampled),
    lambda f, sampled, bulk: fld.energy_primal(f, sampled, bulk),
    lambda f, sampled, bulk: fld.energy_oscillation(f, sampled, bulk),
    lambda f, sampled, bulk: fld.local_energy(f, fld.ball_mask(f.domain, np.zeros(3), 0.5),
                                              sampled, bulk),
    lambda f, sampled, bulk: solver.el_fixed_point(f, sampled, bulk),
], ids=["omega_split", "energy_primal", "energy_oscillation", "local_energy", "el_fixed_point"])
def test_a_kernel_of_another_eps_is_a_resolution_mismatch(run):
    # a kernel sampled at eps 0.5 on a field tagged eps 0.25 divides by the
    # wrong eps^2: energy_oscillation read 2.9390, 4x the 0.7347 of the field
    # tagged 0.5, and the EL solve still converged, in 8 iterations
    dom, sampled, bulk = setup_case(n=18)
    f = fld.OrderField(dom, 0.25, fld.boundary_values("smooth-angle", dom, bulk.manifold.s0, 2))
    with pytest.raises(ResolutionMismatch, match="eps"):
        run(f, sampled, bulk)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_box_sums_match_direct_sums_on_an_odd_padded_length(case):
    # n = 20 and S = 5 transform on fast_len(25) = 25 per axis: the half spectrum
    # has no Nyquist plane, so every plane but k2 = 0 counts twice
    model, sampled, bulk = split_case(case)
    n, S = 20, sampled.radius_cells
    assert S == 5 and fld._padded_shape((n,) * 3, S) == (25,) * 3
    dom = fld.ball_domain(n, SPLIT_H, fld.padded_radius(n, SPLIT_H, S))
    om, h3, eps2 = dom.omega_mask, dom.cell_volume, SPLIT_EPS**2
    f = fld.OrderField(dom, SPLIT_EPS, admissible(model, dom.shape, np.random.default_rng(7)))
    u = f.values

    dot = float(np.sum(u * fld.convolve(sampled, u, dom.h, method="direct"))) * h3
    assert fld.energy_primal(f, sampled, bulk).interaction == pytest.approx(
        -0.5 * dot / eps2, rel=1e-12)
    assert fld.energy_oscillation(f, sampled, bulk).interaction == pytest.approx(
        fld.energy_oscillation(f, sampled, bulk, method="pairwise").interaction, rel=1e-12)
    region = fld.ball_mask(dom, (0.1, 0.0, -0.2), 0.6)
    assert fld.local_form(f, region, sampled) == pytest.approx(
        fld.local_form(f, region, sampled, method="pairwise"), rel=1e-12)

    split = fld.omega_split(f, sampled)
    w = fld.convolve(sampled, np.where(om[..., None], 0.0, u), dom.h, method="direct")[om]
    assert np.abs(split.w - w).max() <= 1e-12 * np.abs(w).max()
    u_om = u[om]
    b = potential.dual_map(model, u_om)
    energy = split.energy(bulk, u_om, split.convolve(u_om), b, potential.log_partition(model, b))
    assert energy == pytest.approx(
        fld.energy_oscillation(f, sampled, bulk, method="pairwise").total, rel=1e-12)


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
@pytest.mark.parametrize("n", [(20, 18, 13), (18, 13, 20)])
def test_fft_convolve_inverts_at_the_box_only(case, n):
    # the inverse pruned to the box runs irfftn's transforms in irfftn's axis
    # order, so it gives irfftn's values on the box to the last bit; S = 5 pads
    # the boxes to (25, 24, 18) and (24, 18, 25), odd and even lengths on each
    # axis, the last one included
    _, sampled, _ = split_case(case)
    S, axes = sampled.radius_cells, (-3, -2, -1)
    p = fld._padded_shape(n, S)
    assert sorted(p) == [18, 24, 25] and p[2] in (18, 25)
    kf = fld._kernel_fft(sampled, n)
    rng = np.random.default_rng(5)
    for x, times in ((rng.standard_normal((sampled.m,) + n), lambda xf: fld._times_kernel(kf, xf)),
                     ((rng.random(n) < 0.5).astype(float), lambda xf: kf * xf)):
        ref = np.fft.irfftn(times(np.fft.rfftn(x, s=p, axes=axes)), s=p, axes=axes)
        assert np.array_equal(fld._fft_convolve(x, S, times), ref[..., :n[0], :n[1], :n[2]])


def test_box_passes_keep_the_padded_box_out_of_memory():
    # on an m = 5 scalar-kernel grid the whole-box sums stream one component's
    # spectrum at a time: peaks in units of one padded complex spectrum
    params = {"strength": 8.0, "width": 0.75, "cut": 2.5}
    sampled = kernel.sample_on_lattice(kernel.kernel_preset("gaussian", 5, params),
                                       SPLIT_EPS, SPLIT_H)
    model = potential.make_s2_model()
    bulk = potential.make_bulk_potential(model, sampled.intK_disc)
    dom = fld.ball_domain(SPLIT_N, SPLIT_H, fld.padded_radius(SPLIT_N, SPLIT_H, 5))
    f = fld.OrderField(dom, SPLIT_EPS, admissible(model, dom.shape, np.random.default_rng(3)))
    p = fld._padded_shape(dom.shape, sampled.radius_cells)
    unit = p[0] * p[1] * (p[2] // 2 + 1) * 16
    for run, bound in ((lambda: fld.omega_split(f, sampled), 10),
                       (lambda: fld.energy_primal(f, sampled, bulk), 8)):
        run()  # the kernel spectrum and S_B are cached
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * unit


def test_scalar_kernel_convolves_with_one_scalar_spectrum():
    # a scalar-mode kernel is f1 Id: its one scalar spectrum and scalar S_B give the
    # numbers of the matrix path, run here by the same values in nematic mode
    # (f2 = f3 = 0), on a ball of 280 cells in a 28^3 box at h = 0.02, eps = 0.1
    params = {"strength": 8.0, "width": 0.75, "cut": 2.5}
    eps, h = 0.1, 0.02
    scalar = kernel.sample_on_lattice(kernel.kernel_preset("gaussian", 5, params), eps, h)
    matrix = kernel.sample_on_lattice(
        kernel.kernel_preset("gaussian-nematic", 5, dict(params, f2=0.0, f3=0.0)), eps, h)
    assert np.abs(scalar.values - matrix.values).max() == 0.0
    model = potential.make_s2_model()
    bulk = potential.make_bulk_potential(model, scalar.intK_disc)
    dom = fld.ball_domain(28, h, 0.08)
    om = dom.omega_mask
    f = fld.OrderField(dom, eps, fld.boundary_values("smooth-angle", dom, bulk.manifold.s0, 5,
                                                    slope=1.5))

    v = fld.convolve(scalar, f.values, h)
    ref = fld.convolve(matrix, f.values, h)
    assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()
    S = fld.convolve_mask(scalar, om, h)
    S_ref = fld.convolve_mask(matrix, om, h)
    assert S.shape == dom.shape and S_ref.shape == dom.shape + (5, 5)
    assert np.abs(S[..., None, None] * np.eye(5) - S_ref).max() <= 1e-12 * np.abs(S_ref).max()
    for energy in (fld.energy_primal, fld.energy_oscillation):
        assert energy(f, scalar, bulk).total == pytest.approx(energy(f, matrix, bulk).total,
                                                              rel=1e-12)
    u = f.values[om]
    b = potential.dual_map(model, u)
    lnz = potential.log_partition(model, b)
    split, split_ref = fld.omega_split(f, scalar), fld.omega_split(f, matrix)
    assert split.energy(bulk, u, split.convolve(u), b, lnz) == pytest.approx(
        split_ref.energy(bulk, u, split_ref.convolve(u), b, lnz), rel=1e-12)

    # the scalar kernel keeps no component axes: one number per frequency and per cell
    assert scalar._cache[("kfft", dom.shape)].ndim == 3
    assert matrix._cache[("kfft", dom.shape)].shape[:2] == (5, 5)
    assert fld.box_moment_field(scalar, dom).shape == dom.shape


def frame_rotation(g):
    """D_ab = tr(E_a g E_b g^T): the action y -> D y of an orthogonal g on the
    coordinates of traceless symmetric matrices."""
    E = potential.sym0_basis()
    return np.einsum("aij,ik,bkl,jl->ab", E, g, E, g)


@settings(max_examples=16, deadline=None)
@given(case=st.sampled_from(sorted(SPLIT_CASES)),
       make_domain=st.sampled_from([fld.ball_domain, fld.cube_domain]),
       perm=st.permutations(range(3)), signs=st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3),
       angle=st.floats(0.0, 2.0 * np.pi), reflect=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_lattice_energies_are_frame_indifferent(case, make_domain, perm, signs, angle, reflect,
                                                seed):
    # u'(x) = rho(g) u(g^T x) for a cube symmetry g of the centred domain and
    # the stencil: rho = D(g) in nematic mode; a scalar kernel lets the s1
    # values turn by any rho in O(2), independently of the positions
    model, sampled, bulk = split_case(case)
    dom = make_domain(SPLIT_N, SPLIT_H, 0.3)
    g = np.eye(3)[list(perm)] * np.array(signs)[:, None]
    if sampled.spec.mode == "nematic":
        rho = frame_rotation(g)
    else:
        c, s = np.cos(angle), np.sin(angle)
        rho = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0 if reflect else 1.0])
    f = fld.OrderField(dom, SPLIT_EPS, admissible(model, dom.shape, np.random.default_rng(seed)))
    # x @ g is g^T x; the cell centres are symmetric about the box centre
    idx = np.rint(dom.cell_centers() @ g / dom.h + (SPLIT_N - 1) / 2).astype(int)
    moved = fld.OrderField(dom, SPLIT_EPS, f.values[tuple(np.moveaxis(idx, -1, 0))] @ rho.T)
    for energy in (fld.energy_primal, fld.energy_oscillation):
        assert energy(moved, sampled, bulk).total == pytest.approx(
            energy(f, sampled, bulk).total, rel=1e-12)


def test_fast_len_is_the_next_5_smooth_length():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    lengths = [k for k in range(1, 1025) if smooth(k)]
    for n in range(1, 513):
        assert fld.fast_len(n) == min(k for k in lengths if k >= n)


def direct_stencil(stencil, u):
    """sum_z stencil(z) u(x - z) over the offsets shorter than the box, one at a time."""
    S, n = len(stencil) // 2, u.shape[:3]
    out = np.zeros_like(u)
    for idx in np.ndindex(stencil.shape):
        z = [i - S for i in idx]
        if all(abs(d) < k for d, k in zip(z, n)):
            lo = tuple(slice(max(0, -d), k - max(0, d)) for d, k in zip(z, n))
            hi = tuple(slice(max(0, d), k - max(0, -d)) for d, k in zip(z, n))
            out[hi] += stencil[idx] * u[lo]
    return out


@pytest.mark.parametrize("tight", [True, False], ids=["S<k-1", "S>=k-1"])
@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(sorted(SPLIT_CASES)), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_fft_lengths_wrap_no_source_into_the_box(tight, case, data, seed):
    # each axis transforms on fast_len(k + min(S, k - 1)): the FFT paths match the
    # sums over stencil offsets on boxes longer and shorter than the stencil
    _, sampled, _ = split_case(case)
    S, m, h = sampled.radius_cells, sampled.m, sampled.h
    n = tuple(data.draw(st.integers(S + 2, 3 * S) if tight else st.integers(1, S + 1))
              for _ in range(3))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n + (m,))
    scale = np.abs(sampled.values).sum() * h**3  # bounds |K_eps * u| for |u| <= 1
    direct = fld.convolve(sampled, u, h, method="direct")
    assert np.abs(fld.convolve(sampled, u, h) - direct).max() <= 1e-13 * scale * np.abs(u).max()
    mask = rng.random(n) < 0.6
    columns = [fld.convolve(sampled, mask[..., None] * np.eye(m)[b], h, method="direct")
               for b in range(m)]
    got = fld.convolve_mask(sampled, mask, h)
    if sampled.spec.mode == "scalar":  # one number per cell: K = f1 Id
        got = got[..., None, None] * np.eye(m)
    assert np.abs(got - np.stack(columns, axis=-1)).max() <= 1e-13 * scale
    stencil = sampled.values[..., 0, 0]
    ref = direct_stencil(stencil, u)
    got = fld.convolve_stencil(stencil, u)
    assert got.shape == u.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(stencil).sum() * np.abs(u).max()
