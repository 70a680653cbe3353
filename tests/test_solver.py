import dataclasses

import numpy as np
import pytest

from nllc import field as fld
from nllc import kernel, potential, solver
from nllc.errors import MaxIterations, OutsideMomentDomain

S1 = potential.make_s1_model()


def setup_case(n=16, h=0.1, eps=0.5, omega_radius=None):
    spec = kernel.kernel_preset("annulus", 2, {"k": 1.3, "rho1": 0.2, "rho2": 1.0})
    sampled = kernel.sample_on_lattice(spec, eps, h)
    if omega_radius is None:
        omega_radius = (n / 2 - sampled.radius_cells - 0.6) * h
    dom = fld.ball_domain(n, h, omega_radius)
    bulk = potential.make_bulk_potential(S1, sampled.intK_disc)
    return dom, sampled, bulk


def boundary_field(dom, eps, s0, slope=1.5):
    bnd = fld.boundary_values("smooth-angle", dom, s0, 2, slope=slope)
    return fld.make_field(dom, eps, bnd)


def test_energy_gradient_matches_finite_differences():
    dom, sampled, bulk = setup_case()
    eps = 0.5
    f = boundary_field(dom, eps, bulk.manifold.s0)
    rng = np.random.default_rng(0)
    om_idx = np.argwhere(dom.omega_mask)
    grad = solver.energy_gradient(f, sampled, bulk)
    d = 1e-4
    for row in om_idx[rng.choice(len(om_idx), 5, replace=False)]:
        i, j, k = row
        for comp in range(2):
            fp = f.copy()
            fp.values[i, j, k, comp] += d
            fm = f.copy()
            fm.values[i, j, k, comp] -= d
            ep = fld.energy_primal(fp, sampled, bulk).total
            em = fld.energy_primal(fm, sampled, bulk).total
            fd = (ep - em) / (2 * d) / dom.cell_volume
            assert grad[i, j, k, comp] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_el_and_descent_find_the_same_energy():
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0)
    r_el = solver.el_fixed_point(
        f.copy(), sampled, bulk, solver.SolverConfig(tol=1e-9, max_iter=3000)
    )
    # plain descent converges far more slowly; it must still land on the same
    # energy level within the residual-squared scale
    r_gd = solver.gradient_descent(
        f.copy(), sampled, bulk, solver.SolverConfig(tol=2e-5, max_iter=4000)
    )
    assert r_el.converged and r_gd.converged
    e_el, e_gd = r_el.energies[-1], r_gd.energies[-1]
    assert e_gd == pytest.approx(e_el, rel=1e-6, abs=1e-8)


def test_descent_rejects_trials_beyond_the_dual_cap():
    # a large step clips trials to 0.995 sigma_max, past |u| ~ 0.990 where the
    # dual solve meets its cap |b| <= 50; such a trial is rejected, not fatal
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0)
    r_el = solver.el_fixed_point(
        f.copy(), sampled, bulk, solver.SolverConfig(tol=1e-9, max_iter=3000)
    )
    r_gd = solver.gradient_descent(
        f.copy(), sampled, bulk, solver.SolverConfig(tol=2e-5, max_iter=4000, descent_step=5.0)
    )
    assert r_gd.converged
    assert r_gd.energies[-1] == pytest.approx(r_el.energies[-1], rel=1e-6, abs=1e-8)


def test_el_fixed_point_evaluates_each_trial_once(monkeypatch):
    # one convolution and one dual solve per trial plus one of each for the
    # start: an accepted trial's pair is kept, not recomputed.  A seeded start
    # of random directions and lengths below s0 on a finer grid takes 18
    # trials, two of them rejected, well above the 10 the test needs
    dom, sampled, bulk = setup_case(n=20, h=0.08, eps=0.4)
    f = boundary_field(dom, 0.4, bulk.manifold.s0)
    om = dom.omega_mask
    rng = np.random.default_rng(2)
    v = rng.standard_normal((int(om.sum()), 2))
    f.values[om] = v * (bulk.manifold.s0 * rng.random(len(v)) / np.linalg.norm(v, axis=1))[:, None]
    calls = {"convolve": 0, "dual_map": 0}
    for name, original in (("convolve", fld.convolve), ("dual_map", potential.dual_map)):

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (fld, potential, solver):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    res = solver.el_fixed_point(f, sampled, bulk, solver.SolverConfig(tol=1e-9))
    assert res.converged and res.iterations >= 10
    assert calls["convolve"] <= res.iterations + 1
    assert calls["dual_map"] <= res.iterations + 1


def test_el_fixed_point_is_anderson_accelerated():
    # the damped iteration alone needs 29 iterations on this case
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0, slope=1.5)
    res = solver.el_fixed_point(f, sampled, bulk, solver.SolverConfig(tol=1e-9))
    assert res.converged and res.iterations <= 12
    assert res.energies[-1] == pytest.approx(1.0931182077837558, rel=1e-10)


def test_el_fixed_point_recovers_from_a_rejected_extrapolation(monkeypatch):
    # the first extrapolated trial (the second trial) leaves the moment set;
    # the solve drops the history, takes a damped step and still converges
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0, slope=1.5)
    cfg = solver.SolverConfig(tol=1e-9)
    ref = solver.el_fixed_point(f.copy(), sampled, bulk, cfg)
    calls = {"n": 0}
    original = solver.dual_map

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:  # start, first (damped) trial, first extrapolation
            raise OutsideMomentDomain("forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "dual_map", failing)
    res = solver.el_fixed_point(f, sampled, bulk, cfg)
    assert res.converged
    assert res.iterations == len(res.energies)  # exactly one rejected trial
    e = np.array(res.energies)
    assert np.all(np.diff(e) <= 1e-12 * (1.0 + np.abs(e[:-1])))
    assert res.energies[-1] == pytest.approx(ref.energies[-1], rel=1e-10)


def test_solvers_preserve_boundary_bitwise():
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0)
    frozen = f.values[~dom.omega_mask].copy()
    for run, tol in ((solver.el_fixed_point, 1e-7), (solver.gradient_descent, 3e-5)):
        res = run(f.copy(), sampled, bulk, solver.SolverConfig(tol=tol, max_iter=3000))
        assert np.array_equal(res.field.values[~dom.omega_mask], frozen)


def test_residual_decreases_and_energy_monotone():
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0, slope=2.5)
    cfg = solver.SolverConfig(tol=1e-8, max_iter=3000)
    res = solver.el_fixed_point(f, sampled, bulk, cfg)
    assert res.residuals[-1] <= cfg.tol
    e = np.array(res.energies)
    assert np.all(np.diff(e) <= 1e-10 * np.maximum(np.abs(e[:-1]), 1.0))


def test_zero_kernel_relaxes_to_zero():
    # with no interaction the minimiser of psi_s is u = 0 cellwise
    spec = kernel.kernel_preset("zero", 2)
    sampled = kernel.sample_on_lattice(spec, 0.5, 0.1)
    dom = fld.ball_domain(18, 0.1, 0.35)
    bulk = potential.make_bulk_potential(S1, sampled.intK_disc)
    bnd = fld.boundary_values("constant", dom, 0.4, 2)
    f = fld.make_field(dom, 0.5, bnd)
    res = solver.el_fixed_point(f, sampled, bulk, solver.SolverConfig(tol=1e-10))
    assert np.allclose(res.field.values[dom.omega_mask], 0.0, atol=1e-9)


def test_constant_vacuum_datum_is_a_fixed_point():
    dom, sampled, bulk = setup_case()
    s0 = bulk.manifold.s0
    bnd = fld.boundary_values("constant", dom, s0, 2)
    f = fld.make_field(dom, 0.5, bnd)
    res = solver.el_fixed_point(f, sampled, bulk, solver.SolverConfig(tol=1e-9))
    assert res.iterations <= 2
    assert np.allclose(res.field.values, bnd, atol=1e-8)


def test_max_iterations_carries_partial_result():
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0, slope=2.5)
    with pytest.raises(MaxIterations) as err:
        solver.el_fixed_point(f, sampled, bulk, solver.SolverConfig(tol=1e-14, max_iter=3))
    res = err.value.result
    assert res.iterations == 3
    assert not res.converged


def test_solve_converging_on_its_last_allowed_iteration_reports_converged():
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0)
    for run, cfg in ((solver.el_fixed_point, solver.SolverConfig(tol=1e-9)),
                     (solver.gradient_descent, solver.SolverConfig(tol=1e-4, descent_step=5.0))):
        free = run(f.copy(), sampled, bulk, cfg)
        edge = run(f.copy(), sampled, bulk, dataclasses.replace(cfg, max_iter=free.iterations))
        assert edge.converged and edge.iterations == free.iterations
        assert np.array_equal(edge.field.values, free.field.values)


def toy_descent(script, residual=1.0, **options):
    """monotone_descent from x = 1 on E(x) = x^2, residual |x|, where trial k
    moves to script[k]; returns the finish arguments and each trial's
    (step, rejected)."""
    calls = []

    def trial(x, step, rejected):
        calls.append((step, rejected))
        y = script[len(calls) - 1]
        return y, y * y, abs(y)

    kw = dict(tol=1e-3, max_iter=10, step=1.0, grow=1.0, cap=np.inf, floor=1e-3, rtol=0.0,
              exhausted="toy_exhausted")
    kw.update(options)
    return solver.monotone_descent(trial, 1.0, 1.0, residual, lambda *r: r, **kw), calls


def test_driver_halves_the_step_on_a_rejected_trial():
    res, calls = toy_descent([2.0, 0.5, 0.0])
    assert calls == [(1.0, False), (0.5, True), (0.5, False)]
    assert res == (0.0, [1.0, 0.25, 0.0], [1.0, 0.5, 0.0], 3, "converged")


def test_driver_grows_the_step_up_to_the_cap():
    _, calls = toy_descent([0.9, 0.8, 0.7, 0.0], grow=2.0, cap=3.0)
    assert [step for step, _ in calls] == [1.0, 2.0, 3.0, 3.0]


def test_driver_step_below_the_floor_raises_with_the_partial_result():
    with pytest.raises(MaxIterations) as err:
        toy_descent([0.5, 2.0, 2.0, 2.0], floor=0.2)
    assert err.value.result == (0.5, [1.0, 0.25], [1.0, 0.5], 4, "toy_exhausted")


def test_driver_returns_at_once_when_the_start_is_converged():
    res, calls = toy_descent([], residual=1e-4)
    assert calls == []
    assert res == (1.0, [1.0], [1e-4], 0, "converged")


def test_driver_checks_convergence_after_the_last_allowed_iteration():
    res, _ = toy_descent([0.5, 0.0], max_iter=2)
    assert res[3:] == (2, "converged")
    with pytest.raises(MaxIterations) as err:
        toy_descent([0.5, 0.0], max_iter=1)
    assert err.value.result == (0.5, [1.0, 0.25], [1.0, 0.5], 1, "max_iterations")


def test_multistart_best_is_no_worse_than_boundary_start():
    dom, sampled, bulk = setup_case(n=14, h=0.1)
    f = boundary_field(dom, 0.5, bulk.manifold.s0)
    cfg = solver.SolverConfig(tol=1e-7, max_iter=2000)
    best, log = solver.minimize_multistart(f, sampled, bulk, cfg, n_random=2)
    assert len(log) == 3
    labels = [l for l, _ in log]
    assert labels[0] == "boundary"
    boundary_energy = dict(log)["boundary"]
    assert best.energies[-1] <= boundary_energy + 1e-12


def test_probe_accepts_minimiser_and_flags_perturbation():
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0)
    cfg = solver.SolverConfig(tol=1e-9, max_iter=3000)
    res = solver.el_fixed_point(f, sampled, bulk, cfg)
    probe = solver.omega_minimality_probe(
        res.field, np.zeros(3), 0.25, sampled, bulk, n_trials=30
    )
    assert probe <= 1e-6
    # physically flip one interior cell: the probe must find the repair
    bad = res.field.copy()
    idx = tuple(np.argwhere(dom.omega_mask)[0])
    bad.values[idx] = -bad.values[idx]
    probe_bad = solver.omega_minimality_probe(
        bad, np.zeros(3), 0.45, sampled, bulk, n_trials=30
    )
    assert probe_bad > 0


def test_margin_and_lipschitz_diagnostics():
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0, slope=2.0)
    margin = solver.physicality_margin(f, S1.sigma_max)
    assert margin == pytest.approx(S1.sigma_max - bulk.manifold.s0, abs=1e-12)
    lip = solver.lipschitz_estimate(f)
    # chord of the orbit: |u(x)-u(y)| <= s0 * slope * h on adjacent cells
    assert 0 < lip <= bulk.manifold.s0 * 2.0 + 1e-9


def test_probe_skips_competitors_outside_the_moment_set():
    # the radial clip to 0.98 sigma_max keeps an s1 value inside the moment
    # set but not an m = 5 one, whose set is not a ball: such a competitor has
    # infinite energy, so it decreases nothing
    model = potential.make_s2_model()
    spec = kernel.kernel_preset("gaussian", 5, {"strength": 8.0, "width": 0.75, "cut": 2.5})
    sampled = kernel.sample_on_lattice(spec, 0.3, 0.1)
    bulk = potential.make_bulk_potential(model, sampled.intK_disc)
    dom = fld.ball_domain(16, 0.1, 0.25)
    f = fld.make_field(dom, 0.3, fld.boundary_values("smooth-angle", dom, bulk.manifold.s0, 5))
    probe = solver.omega_minimality_probe(f, np.zeros(3), 0.2, sampled, bulk, n_trials=6,
                                          amplitude=1.0)
    assert np.isfinite(probe)


@pytest.mark.parametrize("solve", [solver.el_fixed_point, solver.gradient_descent])
def test_solves_convolve_the_whole_box_once(monkeypatch, solve):
    # trials convolve over Omega's window only; the start's split holds the
    # values off Omega, and the recorded energies are the whole-box ones
    dom, sampled, bulk = setup_case()
    f = boundary_field(dom, 0.5, bulk.manifold.s0)
    rng = np.random.default_rng(4)
    f.values[dom.omega_mask] *= 1.0 - 0.2 * rng.random((dom.n_omega, 1))
    calls = []
    original = fld.convolve

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)

    for mod in (fld, solver):
        monkeypatch.setattr(mod, "convolve", counted)
    res = solver.result_of(solve, f, sampled, bulk, solver.SolverConfig(tol=1e-9, max_iter=40))
    monkeypatch.undo()
    assert res.iterations >= 5
    assert calls == [f.values.shape]
    for field, energy in ((f, res.energies[0]), (res.field, res.energies[-1])):
        primal = fld.energy_primal(field, sampled, bulk)
        scale = max(abs(primal.interaction), abs(primal.c_eps), 1.0)
        assert energy == pytest.approx(fld.energy_oscillation(field, sampled, bulk).total,
                                       abs=1e-10 * scale)
