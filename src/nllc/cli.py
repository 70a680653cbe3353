"""Experiment orchestration: config parsing, pipelines, and artifact emission.

Configs are plain INI files (key = value with [sections]).  Every pipeline is
deterministic for a fixed (config, seed) pair: randomness is drawn from one
seeded generator with a named stream per module, outputs carry no timestamps,
and floats are written with repr round-trip precision.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, field as field_mod, kernel as kernel_mod, limit as limit_mod
from . import potential as potential_mod, solver as solver_mod
from .errors import ConfigError, MaxIterations, NllcError

def _preset_keys(table):
    """A preset section's keys: preset, then every parameter of the table's presets."""
    return ("preset",) + tuple(dict.fromkeys(key for params in table.values() for key in params))


# every [section] and key that load_config reads; a config may hold nothing else
CONFIG_KEYS = {
    "kernel": _preset_keys(kernel_mod.PRESETS),
    "model": ("name",),
    "domain": ("n", "h", "omega_radius"),
    "boundary": _preset_keys(field_mod.BOUNDARY_PRESETS),
    "sweep": ("eps",),
    "solver": ("alpha", "tol", "max_iter", "seed"),
    "output": ("dir",),
    "probe": ("ball_radius",),
}


@dataclass
class ExperimentConfig:
    subcommand: str
    kernel_preset: str
    spec: kernel_mod.KernelSpec
    model: potential_mod.MicroModel
    n: int
    h: float
    omega_radius: float | None
    boundary: str
    boundary_params: dict
    eps_list: list
    solver: solver_mod.SolverConfig
    out_dir: Path
    ball_radius: float | None  # probe ball for gamma/holder pipelines


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key}", "missing required key")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}", f"cannot parse {raw!r}: {exc}") from exc


def _preset(parser, section, table, default=None):
    """(name, params) of [section]: its preset, one of table, and the finite
    values of its other keys, each of which that preset must read."""
    name = _get(parser, section, "preset", str, default=default, required=default is None)
    if name not in table:
        raise ConfigError(f"[{section}] preset", f"unknown preset {name!r}")
    keys = parser.options(section) if parser.has_section(section) else []
    keys = [key for key in keys if key != "preset"]
    other = [f"[{section}] {key}" for key in keys if key not in table[name]]
    if other:
        raise ConfigError(", ".join(other), f"not a parameter of the {name} preset")
    return name, {key: _get(parser, section, key, _finite) for key in keys}


def load_config(path, subcommand: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("config", f"cannot read {path}")
    unknown = []
    for sec in parser.sections():
        if sec not in CONFIG_KEYS:
            unknown.append(f"[{sec}]")
        else:
            unknown += [f"[{sec}] {key}" for key in parser.options(sec) if key not in CONFIG_KEYS[sec]]
    if unknown:
        raise ConfigError(", ".join(unknown), "unknown section or key")

    preset, params = _preset(parser, "kernel", kernel_mod.PRESETS)
    name = _get(parser, "model", "name", str, default="s1")
    if name not in potential_mod.MODELS:
        raise ConfigError("[model] name", f"unknown micro-model {name!r}")
    model = potential_mod.MODELS[name]()
    try:
        spec = kernel_mod.kernel_preset(preset, model.m, params)
    except ValueError as exc:
        raise ConfigError("[kernel]", str(exc)) from exc

    n = _get(parser, "domain", "n", int, required=True)
    h = _get(parser, "domain", "h", _finite, required=True)
    if n < 4 or h <= 0:
        raise ConfigError("[domain] n/h", "need n >= 4 and a finite h > 0")
    omega_radius = _get(parser, "domain", "omega_radius", _finite)
    if omega_radius is not None and omega_radius <= 0:
        raise ConfigError("[domain] omega_radius", "need a finite omega_radius > 0")

    boundary, bparams = _preset(parser, "boundary", field_mod.BOUNDARY_PRESETS, default="constant")

    eps_raw = _get(parser, "sweep", "eps", str, required=True)
    try:
        eps_list = [float(tok) for tok in eps_raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError("[sweep] eps", f"cannot parse {eps_raw!r}") from exc
    if not eps_list or not all(0 < e < np.inf for e in eps_list):
        raise ConfigError("[sweep] eps", "entries must be positive and finite")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("[sweep] eps", "entries must be strictly descending")

    try:
        solver_cfg = solver_mod.SolverConfig(
            alpha=_get(parser, "solver", "alpha", _finite, default=0.5),
            tol=_get(parser, "solver", "tol", _finite, default=1e-8),
            max_iter=_get(parser, "solver", "max_iter", int, default=2000),
            seed=_get(parser, "solver", "seed", int, default=0),
        )
    except ValueError as exc:
        raise ConfigError("[solver]", str(exc)) from exc

    out_dir = Path(_get(parser, "output", "dir", str, default="out"))
    ball_radius = _get(parser, "probe", "ball_radius", _finite)

    return ExperimentConfig(
        subcommand=subcommand,
        kernel_preset=preset,
        spec=spec,
        model=model,
        n=n,
        h=h,
        omega_radius=omega_radius,
        boundary=boundary,
        boundary_params=bparams,
        eps_list=eps_list,
        solver=solver_cfg,
        out_dir=out_dir,
        ball_radius=ball_radius,
    )


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _sampled_ladder(cfg: ExperimentConfig):
    """One (eps, sampled kernel, bulk potential) per eps, all on the common grid."""
    out = []
    for eps in cfg.eps_list:
        sk = kernel_mod.sample_on_lattice(cfg.spec, eps, cfg.h)
        bulk = potential_mod.make_bulk_potential(cfg.model, sk.intK_disc)
        out.append((eps, sk, bulk))
    return out


def _domain(cfg: ExperimentConfig, max_stencil: int):
    radius = cfg.omega_radius
    if radius is None:
        radius = field_mod.padded_radius(cfg.n, cfg.h, max_stencil)
    if radius <= 0:
        raise ConfigError(
            "[domain] n", f"grid too small for the eps = {cfg.eps_list[0]:g} stencil"
        )
    try:
        return field_mod.ball_domain(cfg.n, cfg.h, omega_radius=radius)
    except ValueError as exc:  # no cell centre lies within the radius
        key = "[domain] n" if cfg.omega_radius is None else "[domain] omega_radius"
        raise ConfigError(key, str(exc)) from exc


def _setup(cfg: ExperimentConfig):
    """(ladder, dom): the kernel's eps ladder and the domain padded for the
    widest stencil of the ladder."""
    ladder = _sampled_ladder(cfg)
    return ladder, _domain(cfg, max(sk.radius_cells for _, sk, _ in ladder))


def _boundary_field(cfg: ExperimentConfig, dom, s0, eps):
    bd = field_mod.boundary_values(cfg.boundary, dom, s0, cfg.model.m, **cfg.boundary_params)
    return field_mod.OrderField(dom, eps, bd)


def _write_kv(path: Path, rows):
    with open(path, "w") as fh:
        for key, value in rows:
            fh.write(f"{key} = {value!r}\n" if isinstance(value, str) else f"{key} = {value}\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


# ---------------------------------------------------------------------------
# pipelines


def _run_kernel_report(cfg: ExperimentConfig) -> None:
    report = kernel_mod.check_assumptions(cfg.spec)
    tensor = kernel_mod.elastic_tensor(cfg.spec)
    bounds = kernel_mod.ellipticity_bounds(cfg.spec, tensor, report)
    rows = [
        ("preset", cfg.kernel_preset),
        ("assumptions_passed", report.all_pass()),
        ("annulus", tuple(report.annulus)),
        ("m2", report.moments.m2),
        ("mq", report.moments.mq),
        ("isotropic_lambda", tensor.isotropic_constant()),
        ("ellipticity_lower", bounds.lower),
        ("ellipticity_lower_quoted", bounds.lower_quoted),
        ("ellipticity_upper", bounds.upper),
        ("rayleigh_min", bounds.rayleigh_min),
        ("rayleigh_max", bounds.rayleigh_max),
        ("jacobian_discrepancy", bounds.jacobian_discrepancy),
    ]
    _write_kv(cfg.out_dir / "kernel_report.txt", rows)
    with open(cfg.out_dir / "kernel_assumptions.txt", "w") as fh:
        fh.write(report.to_text())


def _run_potential_report(cfg: ExperimentConfig) -> None:
    _, sk, bulk = _sampled_ladder(cfg)[0]
    model = bulk.model
    diag = potential_mod.hessian_diagnostics(model)
    rows = [
        ("model", cfg.model.name),
        ("sigma_max", model.sigma_max),
        ("s0", bulk.manifold.s0),
        ("c0", bulk.c0),
        ("transverse_curvature", bulk.manifold.transverse_curvature),
        ("degenerate", bulk.manifold.degenerate),
        ("intK_split", bulk.manifold.intK_split),
        ("intK_disc_norm", float(np.linalg.norm(sk.intK_disc))),
        ("hessian_c_est", diag.c_est),
        ("hessian_cov_norm_max", diag.cov_norm_max),
        ("hessian_inverse_identity_error", diag.inverse_identity_error),
    ]
    _write_kv(cfg.out_dir / "potential_report.txt", rows)


def _run_minimize(cfg: ExperimentConfig) -> None:
    ladder, dom = _setup(cfg)
    eps, sk, bulk = ladder[0]
    init = _boundary_field(cfg, dom, bulk.manifold.s0, eps)
    best, log = solver_mod.minimize_multistart(init, sk, bulk, cfg.solver)
    field_mod.write_nllc1(cfg.out_dir / "minimizer.nllc1", best.field)
    rows = [
        ("eps", eps),
        ("energy", best.energies[-1]),
        ("residual", best.residuals[-1]),
        ("iterations", best.iterations),
        ("reason", best.reason),
        ("margin", best.margin),
        ("lipschitz", solver_mod.lipschitz_estimate(best.field)),
    ] + [(f"start_{label}", energy) for label, energy in log]
    _write_kv(cfg.out_dir / "minimize_report.txt", rows)


def _limit_reference(cfg: ExperimentConfig, dom, s0):
    boundary = limit_mod.orbit_boundary(cfg.boundary, dom, s0, cfg.model.name,
                                        **cfg.boundary_params)
    tensor = kernel_mod.elastic_tensor(cfg.spec)
    return tensor, limit_mod.harmonic_minimize(boundary, tensor, tol=1e-5, max_iter=4000)


def _run_eps_sweep(cfg: ExperimentConfig) -> None:
    ladder, dom = _setup(cfg)
    _, limit_res = _limit_reference(cfg, dom, ladder[0][2].manifold.s0)
    _write_kv(
        cfg.out_dir / "limit_reference.txt",
        [
            ("reason", limit_res.reason),
            ("iterations", limit_res.iterations),
            ("residual", limit_res.residuals[-1] if limit_res.residuals else float("nan")),
        ],
    )
    v0 = limit_res.mfield.values
    rows = []
    for eps, sk, bulk in ladder:
        init = _boundary_field(cfg, dom, bulk.manifold.s0, eps)
        res = solver_mod.el_fixed_point(init, sk, bulk, cfg.solver)
        primal = field_mod.energy_primal(res.field, sk, bulk)
        om = dom.omega_mask
        diff = res.field.values[om] - v0[om]
        l2 = float(np.sqrt(np.sum(diff * diff) * dom.cell_volume))
        rows.append(
            (
                eps,
                primal.total,
                primal.interaction,
                primal.bulk,
                primal.c_eps,
                res.residuals[-1],
                res.margin,
                solver_mod.lipschitz_estimate(res.field),
                l2,
            )
        )
        field_mod.write_nllc1(cfg.out_dir / f"minimizer_eps_{eps:g}.nllc1", res.field)
    _write_csv(
        cfg.out_dir / "sweep.csv",
        ["eps", "E_total", "E_interaction", "E_bulk", "C_eps", "residual", "margin", "lipschitz", "l2_to_limit"],
        rows,
    )


def _run_limit_solve(cfg: ExperimentConfig) -> None:
    ladder, dom = _setup(cfg)
    tensor, res = _limit_reference(cfg, dom, ladder[0][2].manifold.s0)
    field_mod.write_nllc1(cfg.out_dir / "limit.nllc1", res.mfield.order_field(cfg.eps_list[-1]))
    rows = [
        ("energy", limit_mod.limit_energy(res.mfield, tensor)),
        ("iterations", res.iterations),
        ("cg_iterations", sum(res.cg_iterations)),
        ("reason", res.reason),
        ("isotropic_lambda", tensor.isotropic_constant()),
    ]
    _write_kv(cfg.out_dir / "limit_report.txt", rows)


def _probe_radius(cfg: ExperimentConfig, dom) -> float:
    if cfg.ball_radius is not None:
        return cfg.ball_radius
    return 0.7 * dom.omega_radius


def _run_gamma_check(cfg: ExperimentConfig) -> None:
    ladder, dom = _setup(cfg)
    tensor = kernel_mod.elastic_tensor(cfg.spec)
    rho = _probe_radius(cfg, dom)
    if not (field_mod.ball_mask(dom, np.zeros(3), rho) & dom.omega_mask).any():
        raise ConfigError("[probe] ball_radius", f"the ball of radius {rho:g} holds no Omega cell")
    rows = []
    for eps, sk, bulk in ladder:
        # the recovery family, each eps on its own vacuum orbit: the upper-bound gaps
        v = limit_mod.orbit_boundary(cfg.boundary, dom, bulk.manifold.s0, cfg.model.name,
                                     **cfg.boundary_params)
        rows += limit_mod.gamma_gaps([v.order_field(eps)], [sk], [bulk], v, tensor,
                                     [(np.zeros(3), rho)])
    _write_csv(
        cfg.out_dir / "gamma.csv",
        ["eps", "F_eps", "E_limit", "gap"],
        [(r.eps, r.f_eps, r.e_limit, r.gap) for r in rows],
    )


def _run_holder_probe(cfg: ExperimentConfig) -> None:
    ladder, dom = _setup(cfg)
    rho = _probe_radius(cfg, dom)
    floor = field_mod.RESOLVABLE_CELLS * dom.h
    radii = [rho * f for f in (1.0, 0.85, 0.7, 0.55) if rho * f >= floor]
    if len(radii) < 2:
        raise ConfigError(
            "[probe] ball_radius",
            f"ladder under {rho:g} leaves fewer than two radii above the resolvable scale "
            f"{field_mod.RESOLVABLE_CELLS}h = {floor:g}",
        )
    rows = []
    for eps, sk, bulk in ladder:
        init = _boundary_field(cfg, dom, bulk.manifold.s0, eps)
        res = solver_mod.el_fixed_point(init, sk, bulk, cfg.solver)
        if not res.converged:
            raise MaxIterations(f"eps = {eps:g}: the minimiser did not converge: {res.reason} "
                                f"at residual {res.residuals[-1]:g}", result=res)
        prof = analysis.campanato_profile(res.field, np.zeros(3), radii, sk, bulk)
        mu = max(prof.mu, 0.0)
        semi = analysis.holder_seminorm(res.field, np.zeros(3), 0.5 * rho, mu, seed=cfg.solver.seed)
        try:
            decay = analysis.decay_lemma_check(
                res.field, np.zeros(3), rho, sk, bulk, thetas=(0.25,), eta=np.inf, eps_star=1.0
            )
            ratio = decay[0][1]
        except NllcError:
            ratio = float("nan")
        for rad, osc, en in zip(prof.radii, prof.mean_osc, prof.scaled_energy):
            rows.append((eps, rad, osc, en, prof.mu, semi, ratio))
    _write_csv(
        cfg.out_dir / "holder.csv",
        ["eps", "rho", "mean_osc", "scaled_F", "mu_fit", "holder_seminorm", "decay_ratio"],
        rows,
    )


_PIPELINES = {
    "kernel-report": _run_kernel_report,
    "potential-report": _run_potential_report,
    "minimize": _run_minimize,
    "eps-sweep": _run_eps_sweep,
    "limit-solve": _run_limit_solve,
    "gamma-check": _run_gamma_check,
    "holder-probe": _run_holder_probe,
}
SUBCOMMANDS = tuple(_PIPELINES)


def run(cfg: ExperimentConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _PIPELINES[cfg.subcommand](cfg)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nllc", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the INI experiment config")
        p.add_argument("--out", help="override the output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.subcommand)
        if args.out:
            cfg.out_dir = Path(args.out)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc.tag}: {exc}", file=sys.stderr)
        return 2
    except NllcError as exc:
        print(f"error: {exc.tag}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
