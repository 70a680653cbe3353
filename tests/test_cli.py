import configparser
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nllc import cli, kernel, limit
from nllc import field as fld
from nllc.errors import ConfigError


def write_ini(path, text):
    path.write_text(text)
    return str(path)


ANNULUS_INI = """
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
seed = 0

[probe]
ball_radius = 0.3
"""

ZERO_INI = """
[kernel]
preset = zero

[model]
name = s1

[domain]
n = 14
h = 0.1

[boundary]
preset = constant

[sweep]
eps = 0.4

[solver]
tol = 1e-9
"""


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


SWEEP_HEADER = ["eps", "E_total", "E_interaction", "E_bulk", "C_eps",
                "residual", "margin", "lipschitz", "l2_to_limit"]


def test_kernel_report_artifacts(tmp_path):
    # the checks take no samples: both artifacts are byte-identical across runs
    ini = write_ini(tmp_path / "exp.ini", ANNULUS_INI)
    out, again = tmp_path / "out", tmp_path / "again"
    for path in (out, again):
        assert cli.main(["kernel-report", ini, "--out", str(path)]) == 0
    kv = read_kv(out / "kernel_report.txt")
    assert kv["assumptions_passed"] == "True"
    assert float(kv["m2"]) > 0
    assert float(kv["ellipticity_lower"]) <= float(kv["rayleigh_min"]) + 1e-9
    for name in ("kernel_report.txt", "kernel_assumptions.txt"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_potential_report_artifacts(tmp_path):
    ini = write_ini(tmp_path / "exp.ini", ANNULUS_INI)
    out = tmp_path / "out"
    assert cli.main(["potential-report", ini, "--out", str(out)]) == 0
    kv = read_kv(out / "potential_report.txt")
    assert 0 < float(kv["s0"]) < float(kv["sigma_max"])
    assert kv["degenerate"] == "False"
    assert float(kv["hessian_inverse_identity_error"]) < 1e-8


def test_potential_report_on_s2(tmp_path):
    # the Hessian samples are seeded duals, admissible on the s2 moment set too
    ini = write_ini(tmp_path / "exp.ini", ANNULUS_INI.replace("name = s1", "name = s2"))
    out = tmp_path / "out"
    assert cli.main(["potential-report", ini, "--out", str(out)]) == 0
    kv = read_kv(out / "potential_report.txt")
    assert 0 < float(kv["s0"]) < float(kv["sigma_max"])
    assert abs(float(kv["intK_split"])) < 1e-12  # a scalar-mode kernel does not split intK
    assert float(kv["hessian_inverse_identity_error"]) < 1e-8


def test_zero_kernel_minimize_is_trivial(tmp_path):
    ini = write_ini(tmp_path / "exp.ini", ZERO_INI)
    out = tmp_path / "out"
    assert cli.main(["minimize", ini, "--out", str(out)]) == 0
    kv = read_kv(out / "minimize_report.txt")
    assert abs(float(kv["energy"])) < 1e-9
    f = fld.read_nllc1(out / "minimizer.nllc1")
    om = f.domain.omega_mask
    assert np.allclose(f.values[om], 0.0, atol=1e-8)


def test_eps_sweep_table(tmp_path):
    ini = write_ini(tmp_path / "exp.ini", ANNULUS_INI)
    out = tmp_path / "out"
    assert cli.main(["eps-sweep", ini, "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == SWEEP_HEADER
    assert len(rows) == 2
    eps_col = [float(r[0]) for r in rows]
    assert eps_col == [0.6, 0.5]
    for r in rows:
        assert float(r[5]) <= 1e-7  # residual hit the tolerance
        assert float(r[6]) > 0  # physical margin
        assert np.isfinite(float(r[8]))
    # the minimiser dumps exist and round-trip
    for eps in (0.6, 0.5):
        f = fld.read_nllc1(out / f"minimizer_eps_{eps:g}.nllc1")
        assert f.eps == eps


def test_eps_sweep_reports_limit_reference_status(tmp_path):
    ini = write_ini(tmp_path / "exp.ini", ANNULUS_INI)
    out = tmp_path / "out"
    assert cli.main(["eps-sweep", ini, "--out", str(out)]) == 0
    kv = read_kv(out / "limit_reference.txt")
    assert list(kv) == ["reason", "iterations", "residual"]
    assert kv["reason"] in ("'converged'", "'max_iterations'", "'step_exhausted'")
    assert 1 <= int(kv["iterations"]) <= 4000
    residual = float(kv["residual"])
    if kv["reason"] == "'converged'":
        assert residual <= 1e-5  # the reference solve's tolerance


def test_limit_solve_report(tmp_path):
    ini = write_ini(tmp_path / "exp.ini", ANNULUS_INI)
    out = tmp_path / "out"
    assert cli.main(["limit-solve", ini, "--out", str(out)]) == 0
    kv = read_kv(out / "limit_report.txt")
    assert list(kv) == ["energy", "iterations", "cg_iterations", "reason", "isotropic_lambda"]
    # one energy, the central quadrature that gamma.csv's E_limit uses, of the written field
    cfg = cli.load_config(ini, "limit-solve")
    ladder, dom = cli._setup(cfg)
    mfield = limit.ManifoldField(dom, ladder[0][2].manifold.s0, "s1",
                                 fld.read_nllc1(out / "limit.nllc1").values)
    assert float(kv["energy"]) == limit.limit_energy(mfield, kernel.elastic_tensor(cfg.spec)) > 0
    assert int(kv["cg_iterations"]) >= 0
    # the CG count is deterministic: the report is byte-identical across runs
    again = tmp_path / "again"
    assert cli.main(["limit-solve", ini, "--out", str(again)]) == 0
    assert (again / "limit_report.txt").read_bytes() == (out / "limit_report.txt").read_bytes()


def test_gamma_check_constant_map_gaps_vanish_on_every_eps(tmp_path):
    # each eps's recovery map lies on that eps's own vacuum orbit, where the
    # constant map has zero energy: F_eps read 3.97e-4 at eps 0.5 on the orbit of eps 0.6
    text = ANNULUS_INI.replace("preset = smooth-angle\nslope = 1.5", "preset = constant")
    ini = write_ini(tmp_path / "exp.ini", text)
    out = tmp_path / "out"
    assert cli.main(["gamma-check", ini, "--out", str(out)]) == 0
    header, rows = read_csv(out / "gamma.csv")
    assert [float(r[0]) for r in rows] == [0.6, 0.5]
    for r in rows:
        col = {name: float(value) for name, value in zip(header, r)}
        assert abs(col["F_eps"]) <= 1e-12 and abs(col["gap"]) <= 1e-12


@pytest.mark.parametrize("command, table, columns, total, parts", [
    ("gamma-check", "gamma.csv", ["eps", "F_eps", "E_limit", "gap"], "gap",
     {"F_eps": 1, "E_limit": -1}),
    ("eps-sweep", "sweep.csv", SWEEP_HEADER, "E_total",
     {"E_interaction": 1, "E_bulk": 1, "C_eps": 1}),
], ids=["gamma-check", "eps-sweep"])
def test_gamma_check_table_and_reproducibility(tmp_path, command, table, columns, total, parts):
    # the table is byte-identical across runs and its total is the sum of its parts
    ini = write_ini(tmp_path / "exp.ini", ANNULUS_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main([command, ini, "--out", str(out1)]) == 0
    assert cli.main([command, ini, "--out", str(out2)]) == 0
    assert (out1 / table).read_bytes() == (out2 / table).read_bytes()
    header, rows = read_csv(out1 / table)
    assert header == columns
    for r in rows:
        col = {name: float(value) for name, value in zip(header, r)}
        assert col[total] == pytest.approx(
            sum(sign * col[name] for name, sign in parts.items()), abs=1e-14)


HOLDER_INI = """
[kernel]
preset = annulus
k = 1.3
rho1 = 0.2
rho2 = 1.0

[model]
name = s1

[domain]
n = 24
h = 0.05

[boundary]
preset = smooth-angle
slope = 1.5

[sweep]
eps = 0.3

[solver]
tol = 1e-7
max_iter = 3000

[probe]
ball_radius = 0.25
"""


def test_holder_probe_table(tmp_path):
    ini = write_ini(tmp_path / "exp.ini", HOLDER_INI)
    out = tmp_path / "out"
    assert cli.main(["holder-probe", ini, "--out", str(out)]) == 0
    header, rows = read_csv(out / "holder.csv")
    assert header == [
        "eps", "rho", "mean_osc", "scaled_F", "mu_fit", "holder_seminorm", "decay_ratio",
    ]
    assert rows
    for r in rows:
        assert float(r[2]) >= 0
        assert float(r[5]) >= 0


def test_holder_probe_runs_on_the_readme_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ini = write_ini(tmp_path / "exp.ini", re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    out = tmp_path / "out"
    assert cli.main(["holder-probe", ini, "--out", str(out)]) == 0
    _, rows = read_csv(out / "holder.csv")
    assert rows


def test_holder_probe_on_the_constant_datum_of_the_readme_grid(tmp_path):
    # a constant minimiser's scaled energies are round-off, as low as -5e-16
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    text = re.sub(r"\[boundary\]\n(.+\n)*\n", "[boundary]\npreset = constant\n\n", text)
    ini = write_ini(tmp_path / "exp.ini", text)
    out = tmp_path / "out"
    assert cli.main(["holder-probe", ini, "--out", str(out)]) == 0
    _, rows = read_csv(out / "holder.csv")
    assert rows
    # decay_ratio is nan here: its theta = 0.25 ball lies under 4h
    assert np.all(np.isfinite([[float(v) for v in r[:6]] for r in rows]))


@pytest.mark.parametrize("command", ["minimize", "eps-sweep", "holder-probe"])
def test_unconverged_minimiser_is_reported_on_the_readme_grid(tmp_path, capsys, command):
    # one iteration leaves every solve short of tol: minimize and eps-sweep
    # write the reason and the residual, and holder-probe, which shows
    # neither, exits 3 (it used to write holder.csv and exit 0)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert "max_iter = 3000" in text
    ini = write_ini(tmp_path / "exp.ini", text.replace("max_iter = 3000", "max_iter = 1"))
    out = tmp_path / "out"
    assert cli.main([command, ini, "--out", str(out)]) == (3 if command == "holder-probe" else 0)
    if command == "minimize":
        assert read_kv(out / "minimize_report.txt")["reason"] != "'converged'"
    elif command == "eps-sweep":
        header, rows = read_csv(out / "sweep.csv")
        assert all(float(r[header.index("residual")]) > 1e-7 for r in rows)
    else:
        err = capsys.readouterr().err
        assert "max_iterations" in err and "eps = 0.6" in err
        assert not (out / "holder.csv").exists()


def test_minimize_s2_default_boundary_on_the_readme_config(tmp_path):
    # the default (constant) datum is the uniaxial reference state, on the vacuum orbit
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    text = text.replace("name = s1", "name = s2")
    text = re.sub(r"\[boundary\]\n(.+\n)*\n", "", text)
    assert "name = s2" in text and "[boundary]" not in text
    ini = write_ini(tmp_path / "exp.ini", text)
    assert cli.main(["minimize", ini, "--out", str(tmp_path / "out")]) == 0


def test_cli_import_leaves_scipy_signal_unloaded():
    # the package runs on numpy alone: no scipy module after importing the CLI and
    # every other nllc module
    src = str(Path(cli.__file__).resolve().parents[1])
    mods = ("nllc.cli", "nllc.analysis", "nllc.errors", "nllc.field", "nllc.kernel",
            "nllc.limit", "nllc.potential", "nllc.solver")
    code = (f"import sys, importlib; [importlib.import_module(m) for m in {mods!r}]; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_missing_required_key_exit_2(tmp_path, capsys):
    ini = write_ini(tmp_path / "bad.ini", "[domain]\nn = 18\nh = 0.1\n")
    code = cli.main(["minimize", ini])
    assert code == 2
    assert "[kernel] preset" in capsys.readouterr().err


def test_ascending_eps_exit_2(tmp_path, capsys):
    bad = ANNULUS_INI.replace("eps = 0.6 0.5", "eps = 0.5 0.6")
    ini = write_ini(tmp_path / "bad.ini", bad)
    code = cli.main(["minimize", ini])
    assert code == 2
    assert "[sweep] eps" in capsys.readouterr().err


def test_unparseable_value_exit_2(tmp_path, capsys):
    bad = ANNULUS_INI.replace("h = 0.1", "h = wide")
    ini = write_ini(tmp_path / "bad.ini", bad)
    code = cli.main(["minimize", ini])
    assert code == 2
    assert "[domain] h" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, field", [
    ("seed = 0", "seed = 0\nalpha = 0", "[solver]"),
    ("seed = 0", "seed = 0\nalpha = 1.5", "[solver]"),
    ("tol = 1e-7", "tol = 0", "[solver]"),
    ("tol = 1e-7", "tol = -1e-7", "[solver]"),
    ("tol = 1e-7", "tol = nan", "[solver]"),
    ("max_iter = 3000", "max_iter = 0", "[solver]"),
    ("h = 0.1", "h = nan", "[domain]"),
    ("h = 0.1", "h = inf", "[domain]"),
    ("eps = 0.6 0.5", "eps = inf 0.5", "[sweep] eps"),
    ("eps = 0.6 0.5", "eps = nan", "[sweep] eps"),
    ("h = 0.1", "h = 0.1\nomega_radius = 0.01", "[domain] omega_radius"),  # no cell centre inside
    ("h = 0.1", "h = 0.1\nomega_radius = nan", "[domain] omega_radius"),
    ("h = 0.1", "h = 0.1\nomega_radius = -0.3", "[domain] omega_radius"),
    ("n = 18", "n = 3", "[domain] n/h: need n >= 4"),
    ("h = 0.1", "h = 0", "[domain] n/h: need n >= 4"),
    ("n = 18", "n = 6", "[domain] n: grid too small for the eps = 0.6 stencil"),
    ("rho2 = 1.0", "rho2 = 1.0\nq = 1.5", "[kernel]"),
    # these exited 0 with wrong numbers (tol = inf: 'converged' after 0 iterations),
    # 1 with a raw exception or 3 from inside a solve
    ("tol = 1e-7", "tol = inf", "[solver] tol"),
    ("slope = 1.5", "slope = nan", "[boundary] slope"),
    ("ball_radius = 0.3", "ball_radius = inf", "[probe] ball_radius"),
    ("rho1 = 0.2", "rho1 = nan", "[kernel] rho1"),
    ("k = 1.3", "k = nan", "[kernel] k"),
    ("preset = annulus\nk = 1.3\nrho1 = 0.2\nrho2 = 1.0", "preset = gaussian\nwidth = 0", "[kernel]"),
    ("preset = annulus\nk = 1.3\nrho1 = 0.2\nrho2 = 1.0", "preset = gaussian-nematic", "[kernel]"),
    # these two passed kernel-report: a negative resolution bound, a kernel that is 0 everywhere
    ("preset = annulus\nk = 1.3\nrho1 = 0.2\nrho2 = 1.0", "preset = gaussian\nwidth = 0.3\ncut = 0",
     "[kernel]"),
    ("preset = annulus\nk = 1.3\nrho1 = 0.2\nrho2 = 1.0",
     "preset = inverse6\nr_on = 1.2\nr_full = 1.0", "[kernel]"),
])
def test_out_of_range_value_exit_2(tmp_path, capsys, old, new, field):
    ini = write_ini(tmp_path / "bad.ini", ANNULUS_INI.replace(old, new))
    assert cli.main(["minimize", ini, "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("old, new, names", [
    ("tol = 1e-7", "tolerance = 0", ["[solver] tolerance"]),
    ("seed = 0", "seed = 0\ndescent_step = 5.0", ["[solver] descent_step"]),
    ("k = 1.3", "k = 1.3\nwidht = 0.7", ["[kernel] widht"]),
    ("[probe]", "[probes]", ["[probes]"]),
    ("[probe]", "[extra]\n\n[probe]", ["[extra]"]),
    ("seed = 0", "seed = 0\nstep = 1\n\n[extra]\nx = 1", ["[solver] step", "[extra]"]),
    ("h = 0.1", "h = 0.1\nlayer = 0.15", ["[domain] layer"]),
    ("rho2 = 1.0", "rho2 = 1.0\ntau = 0.3", ["[kernel] tau"]),
], ids=["misspelt-key", "dropped-key", "kernel-key", "misspelt-section", "empty-section",
        "two-unknowns", "domain-layer", "kernel-tau"])
def test_unknown_config_key_exit_2(tmp_path, capsys, old, new, names):
    # a misspelt or dropped key used to be ignored: tolerance = 0 solved at tol 1e-8
    ini = write_ini(tmp_path / "bad.ini", ANNULUS_INI.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(["kernel-report", ini, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown section or key" in err and all(name in err for name in names)
    assert not out.exists()


@pytest.mark.parametrize("old, new, names", [
    ("rho2 = 1.0", "rho2 = 1.0\nwidth = 0.7", ["[kernel] width"]),
    ("preset = annulus\nk = 1.3\nrho1 = 0.2\nrho2 = 1.0", "preset = gaussian\nf2 = 0.3",
     ["[kernel] f2"]),
    ("preset = annulus", "preset = zero", ["[kernel] k", "[kernel] rho1", "[kernel] rho2"]),
], ids=["annulus-width", "gaussian-f2", "zero-annulus-keys"])
def test_kernel_key_of_another_preset_exit_2(tmp_path, capsys, old, new, names):
    # a key the preset does not read raised a raw TypeError (annulus) or was dropped
    ini = write_ini(tmp_path / "bad.ini", ANNULUS_INI.replace(old, new))
    assert cli.main(["kernel-report", ini, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "not a parameter of the" in err and all(name in err for name in names)


@pytest.mark.parametrize("old, new, name", [
    ("preset = smooth-angle", "preset = vortex", "[boundary] slope"),
    ("preset = smooth-angle\nslope = 1.5", "preset = constant\nwinding = 1.0", "[boundary] winding"),
], ids=["vortex-slope", "constant-winding"])
def test_boundary_key_of_another_preset_exit_2(tmp_path, capsys, old, new, name):
    # slope under preset = vortex was dropped, and the solve ran the winding-1 vortex
    ini = write_ini(tmp_path / "bad.ini", ANNULUS_INI.replace(old, new))
    assert cli.main(["minimize", ini, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "not a parameter of the" in err and name in err


# the config keys that do not hold one float
NOT_FLOAT = {"preset", "name", "n", "eps", "max_iter", "seed", "dir"}


def test_non_finite_float_values_are_config_errors(tmp_path):
    presets = {"kernel": kernel.PRESETS, "boundary": fld.BOUNDARY_PRESETS}
    base = configparser.ConfigParser()
    base.read_string(ANNULUS_INI)
    for section, keys in cli.CONFIG_KEYS.items():
        for key in sorted(set(keys) - NOT_FLOAT):
            parser = configparser.ConfigParser()
            parser.read_dict(base)
            if section in presets:  # a preset that reads the key, and no other key
                preset = next(name for name, params in presets[section].items() if key in params)
                parser[section] = {"preset": preset}
            for value in ("nan", "inf", "-inf"):
                parser.set(section, key, value)
                with open(tmp_path / "bad.ini", "w") as fh:
                    parser.write(fh)
                with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
                    cli.load_config(tmp_path / "bad.ini", "minimize")


def test_benchmark_cli_config_loads(tmp_path):
    # the config of the benchmark's cli_suite workload holds only keys the CLI reads
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    text = re.search(r'CLI_CONFIG = """\\\n(.*?)"""', source, re.S).group(1)
    cfg = cli.load_config(write_ini(tmp_path / "exp.ini", text.format(seed=7)), "minimize")
    assert cfg.solver.seed == 7 and cfg.ball_radius == 0.6


def test_negative_seed_exit_2(tmp_path, capsys):
    ini = write_ini(tmp_path / "bad.ini", ANNULUS_INI.replace("seed = 0", "seed = -1"))
    out = tmp_path / "out"
    assert cli.main(["minimize", ini, "--out", str(out)]) == 2
    assert "[solver]" in capsys.readouterr().err
    assert not (out / "minimizer.nllc1").exists()


def test_gamma_check_probe_ball_without_omega_cells_exit_2(tmp_path, capsys):
    # on an even grid no cell centre lies at the origin, so a radius-0 ball is empty
    ini = write_ini(tmp_path / "bad.ini", ANNULUS_INI.replace("ball_radius = 0.3", "ball_radius = 0"))
    out = tmp_path / "out"
    assert cli.main(["gamma-check", ini, "--out", str(out)]) == 2
    assert "[probe] ball_radius" in capsys.readouterr().err
    assert not (out / "gamma.csv").exists()


def test_numerical_failure_exit_3(tmp_path, capsys):
    # resolution guard: h far too coarse for the smallest eps
    bad = ANNULUS_INI.replace("eps = 0.6 0.5", "eps = 0.1")
    ini = write_ini(tmp_path / "bad.ini", bad)
    code = cli.main(["minimize", ini])
    assert code == 3
    assert "error:" in capsys.readouterr().err
