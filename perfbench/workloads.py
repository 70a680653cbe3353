"""The four benchmark workloads: inputs from a seed, one pass of operations, output checks.

Building a workload object is its set-up (kernels, bulk potentials, domain,
boundary data, elastic tensor).  ``ops()`` lists the operations of one pass;
``run(op)`` executes one and returns its outcome; ``check(op, outcome)``
returns the list of problems found, empty when the outputs satisfy the
paper's identities.  The program sees only the generated inputs.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from nllc import field as fld, kernel, limit, potential, solver
from nllc.errors import MaxIterations

ROOT = Path(__file__).resolve().parent.parent
_REFERENCE_FILE = Path(__file__).parent / "reference.json"
REFERENCE = json.loads(_REFERENCE_FILE.read_text())["energies"] if _REFERENCE_FILE.is_file() else {}

H = 0.02
# (n, Omega radius): 552 and 280 interior cells, sized so that one pass takes
# about 5 s on a 2-core Xeon and a 25 s run takes the median of several passes
EL_S1_DOMAIN = (30, 0.10)
EL_S2_DOMAIN = (28, 0.08)
# kernel of the common_sweep fixture; m = 5 variant with a stronger coupling
S1_KERNEL = {"strength": 4.0, "width": 0.75, "cut": 2.5}
S2_KERNEL = {"strength": 8.0, "width": 0.75, "cut": 2.5}
EL_CONFIG = solver.SolverConfig(tol=1e-8, max_iter=500)
LIMIT_TOL, LIMIT_MAX_ITER = 1e-7, 20000
# Seeded start perturbation, as a share of s0, and the radius it is clipped to.
# The boundary-datum start carries almost no error in the slow long-wavelength
# modes of either iteration.  On the n = 40, R = 0.16 domain, noise of 1e-3 s0
# raised the four EL solves from 179 to about 530 iterations (seed-dependent
# by 10 %), and 1e-6 s0 raised the harmonic solve from 207 to 357.  At 1e-9 s0
# every count matches the unperturbed start.
PERTURBATION = 1e-9
CLIP = 0.95

# tolerances of the Tier-1 tests that check the same identities
PRIMAL_OSC_REL = 1e-10  # test_primal_oscillation_identity, scaled by max(|interaction|, |C_eps|, 1)
ROUND_TRIP_ABS = 1e-10  # test_minimal_distribution_reproduces_moment
ENERGY_REL = 1e-6  # test_fixed_point_and_descent_minimisers_agree_and_stay_physical
ORBIT_ABS = 1e-12  # test_project_orbit_idempotent_and_norm


def _perturbed(values, mask, rng, amplitude, cap):
    vals = values.copy()
    inner = vals[mask] + amplitude * rng.standard_normal((int(mask.sum()), vals.shape[-1]))
    norms = np.linalg.norm(inner, axis=-1, keepdims=True)
    vals[mask] = np.where(norms > cap, inner * (cap / np.maximum(norms, 1e-300)), inner)
    return vals


def _result(solve, *args, **kwargs):
    """The solve's result, also when it ran out of iterations (its reason says so)."""
    try:
        return solve(*args, **kwargs)
    except MaxIterations as exc:
        if exc.result is None:
            raise
        return exc.result


def _energy_problem(key, energy):
    ref = REFERENCE.get(key)
    if ref is None:
        return [f"{key}: no reference energy in {_REFERENCE_FILE.name}"]
    if not abs(energy - ref) <= ENERGY_REL * abs(ref):
        return [f"{key}: energy {energy!r} differs from reference {ref!r}"]
    return []


class ELWorkload:
    """Euler-Lagrange fixed-point solves over an eps x boundary grid."""

    def __init__(self, name, model, spec, n, radius, eps_list, boundaries, seed):
        rng = np.random.default_rng(seed)
        self.model = model
        self.dom = fld.ball_domain(n, H, radius)
        om = self.dom.omega_mask
        self.cases = {}
        for eps in eps_list:
            sk = kernel.sample_on_lattice(spec, eps, H)
            bulk = potential.make_bulk_potential(model, sk.intK_disc)
            s0 = bulk.manifold.s0
            for preset, params in boundaries:
                bnd = fld.boundary_values(preset, self.dom, s0, model.m, **params)
                vals = _perturbed(bnd, om, rng, PERTURBATION * s0, CLIP * model.sigma_max)
                init = fld.OrderField(self.dom, eps, vals)
                self.cases[f"{name}/{preset}/eps={eps:g}"] = (init, sk, bulk)

    def ops(self):
        return list(self.cases)

    def run(self, op):
        init, sk, bulk = self.cases[op]
        return _result(solver.el_fixed_point, init, sk, bulk, EL_CONFIG)

    def check(self, op, res):
        _, sk, bulk = self.cases[op]
        problems = []
        if res.reason != "converged" or not res.residuals[-1] <= EL_CONFIG.tol:
            problems.append(f"{op}: {res.reason} at residual {res.residuals[-1]:g}")
        if not res.margin > 0:
            problems.append(f"{op}: physicality margin {res.margin:g}")
        primal = fld.energy_primal(res.field, sk, bulk)
        osc = fld.energy_oscillation(res.field, sk, bulk)
        scale = max(abs(primal.interaction), abs(primal.c_eps), 1.0)
        if not abs(primal.total - osc.total) <= PRIMAL_OSC_REL * scale:
            problems.append(f"{op}: primal {primal.total!r} != oscillation {osc.total!r}")
        u = res.field.values[self.dom.omega_mask]
        back = potential.lambda_inverse(self.model, potential.dual_map(self.model, u))
        err = float(np.max(np.abs(back - u)))
        if not err <= ROUND_TRIP_ABS:
            problems.append(f"{op}: Lambda^-1(Lambda(u)) - u = {err:g}")
        return problems + _energy_problem(op, res.energies[-1])


class LimitWorkload:
    """Harmonic minimisation on the s1 orbit with a vortex trace."""

    op = "limit_vortex/vortex"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        spec = kernel.kernel_preset("gaussian", 2, S1_KERNEL)
        sk = kernel.sample_on_lattice(spec, 0.05, H)
        self.s0 = potential.make_bulk_potential(potential.make_s1_model(), sk.intK_disc).manifold.s0
        n, radius = EL_S1_DOMAIN  # the el_s1 domain
        dom = fld.ball_domain(n, H, radius)
        self.boundary = limit.orbit_boundary("vortex", dom, self.s0, "s1", winding=1.0)
        self.tensor = kernel.elastic_tensor(spec)
        self.init = _perturbed(self.boundary.values, dom.omega_mask, rng,
                               PERTURBATION * self.s0, np.inf)

    def ops(self):
        return [self.op]

    def run(self, op):
        return _result(limit.harmonic_minimize, self.boundary, self.tensor, tol=LIMIT_TOL,
                       max_iter=LIMIT_MAX_ITER, interior_init=self.init)

    def check(self, op, res):
        problems = []
        if res.reason != "converged":
            problems.append(f"{op}: {res.reason} after {res.iterations} iterations")
        err = float(np.max(np.abs(np.linalg.norm(res.mfield.values, axis=-1) - self.s0)))
        if not err <= ORBIT_ABS:
            problems.append(f"{op}: | |u| - s0 | reaches {err:g}")
        return problems + _energy_problem(op, res.energies[-1])


# the README example config with a probe ball the holder-probe ladder accepts
CLI_CONFIG = """\
[kernel]
preset = annulus
k = 1.3
rho1 = 0.2
rho2 = 1.0

[model]
name = s1

[domain]
n = 18
h = 0.1

[boundary]
preset = smooth-angle
slope = 1.5

[sweep]
eps = 0.6 0.5

[solver]
tol = 1e-7
max_iter = 3000
seed = {seed}

[probe]
ball_radius = 0.6
"""

ARTIFACTS = {
    "kernel-report": ("kernel_report.txt", "kernel_assumptions.txt"),
    "potential-report": ("potential_report.txt",),
    "minimize": ("minimize_report.txt", "minimizer.nllc1"),
    "eps-sweep": ("sweep.csv", "minimizer_eps_0.6.nllc1", "minimizer_eps_0.5.nllc1"),
    "limit-solve": ("limit_report.txt", "limit.nllc1"),
    "gamma-check": ("gamma.csv",),
    "holder-probe": ("holder.csv",),
}
# holder-probe writes nan here when decay_lemma_check's resolution guard
# rejects the probe ball; with h = 0.1 the theta = 0.25 inner ball always is
NAN_MARKER_COLUMNS = {"decay_ratio"}


def _is_finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _report_problems(path):
    """Every numeric report value must parse as a finite number."""
    problems = []
    if path.suffix == ".csv":
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        for row in rows:
            for col, cell in zip(header, row):
                if col in NAN_MARKER_COLUMNS and cell == "nan":
                    continue
                if not _is_finite_number(cell):
                    problems.append(f"{path.name}: {col} = {cell}")
        return problems
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if value.startswith("(") and value.endswith(")"):
            items = value[1:-1].split(",")
        elif value.startswith("'") or value in ("True", "False", "pass", "fail"):
            continue
        else:
            items = [value]
        if not all(_is_finite_number(item) for item in items):
            problems.append(f"{path.name}: {key} = {value}")
    return problems


class CliWorkload:
    """All seven subcommands on one config.

    Without a tracer each subcommand runs as its own process, as a user runs
    it.  With one (the traced run) every pass runs them in-process through
    ``nllc.cli.main``, each inside a ``cli.<subcommand>`` span.
    """

    def __init__(self, seed, tmp: Path, tracer=None):
        from nllc import cli  # only this workload pays for importing the CLI and analysis

        self.cli = cli
        self.tmp = tmp
        self.config = tmp / "exp.ini"
        self.config.write_text(CLI_CONFIG.format(seed=seed))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.tracer = tracer

    def ops(self):
        return [f"cli_suite/{sub}" for sub in self.cli.SUBCOMMANDS]

    def _out(self, op):
        return self.tmp / op.split("/")[1]

    def run(self, op):
        sub, out = op.split("/")[1], self._out(op)
        shutil.rmtree(out, ignore_errors=True)
        argv = [sub, str(self.config), "--out", str(out)]
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "nllc.cli", *argv], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=170)
            return proc.returncode, proc.stderr
        with self.tracer.span(f"cli.{sub}"):
            return self.cli.main(argv), ""

    def check(self, op, outcome):
        code, stderr = outcome
        if code != 0:
            return [f"{op}: exit {code}: {stderr.strip()[-300:]}"]
        out = self._out(op)
        problems = []
        for name in ARTIFACTS[op.split("/")[1]]:
            path = out / name
            if not path.is_file():
                problems.append(f"{op}: missing {name}")
            elif path.suffix == ".nllc1":
                copy = out / (name + ".reread")
                fld.write_nllc1(copy, fld.read_nllc1(path))
                if copy.read_bytes() != path.read_bytes():
                    problems.append(f"{op}: {name} does not read back to the same values")
            else:
                problems.extend(f"{op}: {p}" for p in _report_problems(path))
        shutil.rmtree(out, ignore_errors=True)
        return problems


def make(name, seed, tmp: Path, tracer=None):
    if name == "el_s1":
        spec = kernel.kernel_preset("gaussian", 2, S1_KERNEL)
        return ELWorkload(name, potential.make_s1_model(), spec, *EL_S1_DOMAIN, (0.1, 0.05),
                          (("smooth-angle", {"slope": 1.5}), ("vortex", {"winding": 1.0})), seed)
    if name == "el_s2":
        spec = kernel.kernel_preset("gaussian", 5, S2_KERNEL)
        return ELWorkload(name, potential.make_s2_model(), spec, *EL_S2_DOMAIN, (0.1,),
                          (("smooth-angle", {"slope": 1.5}),), seed)
    if name == "limit_vortex":
        return LimitWorkload(seed)
    if name == "cli_suite":
        return CliWorkload(seed, tmp, tracer)
    raise ValueError(f"unknown workload {name!r}")
