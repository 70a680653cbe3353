"""Which nllc functions the traced run wraps, and the per-layer metrics.

Metric names are ``<module>.<function>.<quantity>``.  ``.s`` is self time in
seconds; rates (``us_per_cell``, ``ms_per_call``, ``s_per_iter``) divide the
inclusive span time.  Counts come from span counts, from the arguments
(cells) or from the returned result (iterations, accepted steps).
"""

import os

from spans import coverage, self_times

# nllc.cli.SUBCOMMANDS, repeated so that importing this module before set-up
# does not load the CLI into every workload's set-up time
SUBCOMMANDS = (
    "kernel-report",
    "potential-report",
    "minimize",
    "eps-sweep",
    "limit-solve",
    "gamma-check",
    "holder-probe",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _cells(name):
    def attrs(args, kwargs, result):
        x = _arg(args, kwargs, 1, name)
        return {"cells": x.size // x.shape[-1]}

    return attrs


def _steps(args, kwargs, result):
    return {"iterations": result.iterations, "accepted": len(result.energies) - 1}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


TARGETS = {
    "kernel.sample_on_lattice": None,
    "kernel.elastic_tensor": None,
    "kernel.check_assumptions": None,
    "potential.make_bulk_potential": None,
    "potential.dual_map": _cells("u"),
    "potential.lambda_inverse": _cells("b"),
    "potential.covariance": None,
    "field.convolve": None,
    "field.energy_oscillation": None,
    "field.energy_primal": None,
    "field.write_nllc1": _bytes,
    "solver.el_fixed_point": _steps,
    "limit.harmonic_minimize": _steps,
    "limit.limit_energy": None,
    "analysis.campanato_profile": None,
    "analysis.holder_seminorm": None,
    "analysis.decay_lemma_check": None,
}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{t}.s", "s") for t in ("kernel.sample_on_lattice", "kernel.elastic_tensor",
                                "kernel.check_assumptions", "potential.make_bulk_potential")]
    + [
        ("potential.dual_map.s", "s"),
        ("potential.dual_map.calls", "count"),
        ("potential.dual_map.cells", "count"),
        ("potential.dual_map.us_per_cell", "us"),
        ("potential.dual_map.newton_iters", "count"),
        ("potential.lambda_inverse.s", "s"),
        ("potential.lambda_inverse.us_per_cell", "us"),
        ("potential.covariance.s", "s"),
        ("field.convolve.s", "s"),
        ("field.convolve.calls", "count"),
        ("field.convolve.ms_per_call", "ms"),
        ("field.energy_oscillation.s", "s"),
        ("field.energy_oscillation.calls", "count"),
        ("field.energy_primal.s", "s"),
        ("field.write_nllc1.s", "s"),
        ("field.write_nllc1.bytes", "bytes"),
        ("solver.el_fixed_point.s", "s"),
        ("solver.el_fixed_point.iterations", "count"),
        ("solver.el_fixed_point.accepted", "count"),
        ("solver.el_fixed_point.accept_ratio", "ratio"),
        ("solver.el_fixed_point.s_per_iter", "s"),
        ("solver.el_fixed_point.convolve_per_accepted", "ratio"),
        ("solver.el_fixed_point.dual_map_per_accepted", "ratio"),
        ("limit.harmonic_minimize.s", "s"),
        ("limit.harmonic_minimize.iterations", "count"),
        ("limit.harmonic_minimize.accepted", "count"),
        ("limit.harmonic_minimize.s_per_iter", "s"),
        ("limit.limit_energy.s", "s"),
        ("analysis.campanato_profile.s", "s"),
        ("analysis.holder_seminorm.s", "s"),
        ("analysis.decay_lemma_check.s", "s"),
    ]
    + [(f"cli.{sub}.s", "s") for sub in SUBCOMMANDS]
    + [("trace.overhead_frac", "ratio"), ("trace.coverage", "ratio")]
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, window: tuple, untraced_s: float) -> dict:
    """Per-layer values from the spans of set-up plus one traced pass.

    window is the (start, end) of the traced pass; untraced_s is the wall_s
    of the untraced passes of the same run, the base of trace.overhead_frac.
    """
    own = self_times(spans)
    by_name: dict = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum((own[i] for i in ids(name)), 0.0)

    def incl_s(name):
        return sum((spans[i].end - spans[i].start for i in ids(name)), 0.0)

    def attr(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in ids(name))

    def has_ancestor(i, name):
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def count_under(name, ancestor):
        return sum(1 for i in ids(name) if has_ancestor(i, ancestor))

    newton = sum(
        1 for i in ids("potential.lambda_inverse")
        if spans[i].parent is not None and spans[spans[i].parent].name == "potential.dual_map"
    )
    el, hm = "solver.el_fixed_point", "limit.harmonic_minimize"
    el_acc, hm_acc = attr(el, "accepted"), attr(hm, "accepted")
    values = {
        "potential.dual_map.calls": len(ids("potential.dual_map")),
        "potential.dual_map.cells": attr("potential.dual_map", "cells"),
        "potential.dual_map.us_per_cell": 1e6 * _ratio(
            incl_s("potential.dual_map"), attr("potential.dual_map", "cells")),
        "potential.dual_map.newton_iters": newton,
        "potential.lambda_inverse.us_per_cell": 1e6 * _ratio(
            incl_s("potential.lambda_inverse"), attr("potential.lambda_inverse", "cells")),
        "field.convolve.calls": len(ids("field.convolve")),
        "field.convolve.ms_per_call": 1e3 * _ratio(
            incl_s("field.convolve"), len(ids("field.convolve"))),
        "field.energy_oscillation.calls": len(ids("field.energy_oscillation")),
        "field.write_nllc1.bytes": attr("field.write_nllc1", "bytes"),
        f"{el}.iterations": attr(el, "iterations"),
        f"{el}.accepted": el_acc,
        f"{el}.accept_ratio": _ratio(el_acc, attr(el, "iterations")),
        f"{el}.s_per_iter": _ratio(incl_s(el), attr(el, "iterations")),
        f"{el}.convolve_per_accepted": _ratio(count_under("field.convolve", el), el_acc),
        f"{el}.dual_map_per_accepted": _ratio(count_under("potential.dual_map", el), el_acc),
        f"{hm}.iterations": attr(hm, "iterations"),
        f"{hm}.accepted": hm_acc,
        f"{hm}.s_per_iter": _ratio(incl_s(hm), attr(hm, "iterations")),
        "trace.overhead_frac": _ratio((window[1] - window[0]) - untraced_s, untraced_s),
        "trace.coverage": coverage(spans, *window),
    }
    out = {}
    for name, unit in PER_LAYER:
        value = values[name] if name in values else self_s(name[: -len(".s")])
        out[name] = {"value": value, "unit": unit}
    return out
