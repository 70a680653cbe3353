"""Self-time arithmetic of the span recorder, layer metrics and the timing loop.

    python3 -m pytest perfbench/test_spans.py
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Tracer, coverage, self_times, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.6)]) == pytest.approx(3.0)
    assert union_length([(1.0, 1.0), (3.0, 2.0)]) == 0.0


def test_self_times_on_nested_and_overlapping_children():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlaps a) and c [9, 12]
    # (runs past root's end); a has child a1 [2, 3]; b has children b1 [3, 5]
    # and b2 [4, 6] that overlap each other
    spans = [
        Span("root", 0.0, 10.0, None, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("a1", 2.0, 3.0, 1, "op"),
        Span("b", 3.0, 6.0, 0, "op"),
        Span("b1", 3.0, 5.0, 3, "op"),
        Span("b2", 4.0, 6.0, 3, "op"),
        Span("c", 9.0, 12.0, 0, "op"),
    ]
    got = self_times(spans)
    # root: children cover [1, 6] and [9, 10] inside it -> 10 - 6
    # a: 3 - 1; a1: 1; b: [3, 6] fully covered by b1 u b2 -> 0; b1: 2; b2: 2; c: 3
    assert got == pytest.approx([4.0, 2.0, 1.0, 0.0, 2.0, 2.0, 3.0])


def test_coverage_counts_top_level_spans_inside_the_window():
    spans = [
        Span("setup", 0.0, 1.0, None, "setup"),
        Span("x", 2.0, 5.0, None, "pass"),
        Span("y", 4.0, 7.0, None, "pass"),
        Span("child", 2.0, 9.0, 1, "pass"),  # not top level: ignored
    ]
    assert coverage(spans, 2.0, 10.0) == pytest.approx(5.0 / 8.0)


def test_install_rebinds_every_module_that_imported_the_function():
    def helper(x):
        return 2 * x

    mod = types.ModuleType("nllc.fakemod")
    mod.helper = helper
    user = types.ModuleType("nllc.fakeuser")  # did "from .fakemod import helper"
    user.helper = helper
    saved = {k: sys.modules.get(k) for k in ("nllc", mod.__name__, user.__name__)}
    sys.modules.update({"nllc": types.ModuleType("nllc"), mod.__name__: mod, user.__name__: user})
    tracer = Tracer()
    try:
        tracer.install({"fakemod.helper": lambda a, k, r: {"x": a[0]}})
        assert user.helper is not helper and mod.helper is not helper
        assert user.helper(3) == 6
        assert [(s.name, s.parent, s.attrs) for s in tracer.spans] == [
            ("fakemod.helper", None, {"x": 3})
        ]
        tracer.uninstall()
        assert user.helper is helper and mod.helper is helper
    finally:
        for key, value in saved.items():
            if value is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = value


def test_span_records_only_while_installed():
    tracer = Tracer()
    with tracer.span("cli.kernel-report"):
        pass
    assert tracer.spans == []
    tracer.install({})
    with tracer.span("cli.kernel-report"):
        pass
    tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["cli.kernel-report"]


def test_layer_metrics_counts_and_ratios_on_a_synthetic_solve():
    import layers

    def sp(name, start, end, parent, **attrs):
        return Span(name, start, end, parent, "pass", attrs)

    # one solve with two accepted steps: per step one dual_map (two Newton
    # steps, each a lambda_inverse) and one convolve; one convolve outside
    spans = [
        sp("solver.el_fixed_point", 0.0, 10.0, None, iterations=3, accepted=2),
        sp("potential.dual_map", 1.0, 3.0, 0, cells=100),
        sp("potential.lambda_inverse", 1.0, 1.5, 1, cells=100),
        sp("potential.lambda_inverse", 2.0, 2.5, 1, cells=100),
        sp("field.convolve", 3.0, 4.0, 0),
        sp("potential.dual_map", 5.0, 7.0, 0, cells=100),
        sp("potential.lambda_inverse", 5.0, 6.0, 5, cells=100),
        sp("potential.lambda_inverse", 6.0, 7.0, 5, cells=100),
        sp("field.convolve", 7.0, 8.0, 0),
        sp("field.convolve", 11.0, 12.0, None),
    ]
    m = {k: v["value"] for k, v in layers.layer_metrics(spans, (0.0, 12.0), 10.0).items()}
    assert m["solver.el_fixed_point.s"] == pytest.approx(4.0)
    assert m["potential.dual_map.s"] == pytest.approx(1.0)
    assert m["potential.dual_map.calls"] == 2
    assert m["potential.dual_map.newton_iters"] == 4
    assert m["potential.dual_map.us_per_cell"] == pytest.approx(1e6 * 4.0 / 200)
    assert m["field.convolve.calls"] == 3
    assert m["solver.el_fixed_point.accept_ratio"] == pytest.approx(2 / 3)
    assert m["solver.el_fixed_point.convolve_per_accepted"] == pytest.approx(1.0)
    assert m["solver.el_fixed_point.dual_map_per_accepted"] == pytest.approx(1.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    assert m["trace.coverage"] == pytest.approx(11.0 / 12.0)
    assert m["limit.harmonic_minimize.s"] == 0.0
    assert set(m) == {name for name, _ in layers.PER_LAYER}


def test_layer_metric_names_cover_every_cli_subcommand():
    import layers

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from nllc import cli

    assert layers.SUBCOMMANDS == cli.SUBCOMMANDS


def test_timed_ops_runs_every_op_and_counts_raising_ones_as_failed():
    import worker

    class Fake:
        def ops(self):
            return ["ok", "boom"]

        def run(self, op):
            if op == "boom":
                raise ValueError("no result")
            return op

        def check(self, op, outcome):
            return []

    class Probe:  # a machine whose speed block always takes half the reference time
        def block_s(self, blocks=1):
            return worker.speed.REFERENCE_S / 2

        def blocks_for(self, seconds):
            return 1

    problems = []
    times = worker._timed_ops(Fake(), 0.0, problems, Probe())  # no budget: each op once
    assert [len(t) for t in times.values()] == [1, 1]
    assert all(cpu >= 0 and wall >= 0 and scale == 2.0 for t in times.values() for cpu, wall, scale in t)
    assert problems == [[], ["boom: raised ValueError: no result"]]
    problems = []
    times = worker._timed_ops(Fake(), 60.0, problems, Probe())  # instant ops stop at the cap
    assert [len(t) for t in times.values()] == [worker.MAX_ROUNDS] * 2
    assert sum(1 for p in problems if p) == worker.MAX_ROUNDS


def test_pass_s_sums_the_middle_mean_of_each_op():
    import worker

    assert worker.middle_mean([7.0]) == 7.0
    assert worker.middle_mean([1.0, 2.0]) == 1.5
    assert worker.middle_mean([3.0, 1.0, 2.0]) == 2.0
    assert worker.middle_mean([9.0, 1.0, 2.0, 4.0, 3.0]) == 3.0
    assert worker.middle_mean([5.0, 1.0, 9.0, 2.0, 4.0, 3.0, 8.0]) == 4.0
    times = {"a": [(1.0, 9.0, 1.0), (3.0, 2.0, 1.0), (2.0, 4.0, 1.0)], "b": [(0.5, 1.0, 1.0)]}
    assert worker.pass_s(times) == 2.5
    assert worker.pass_s(times, worker._wall) == 5.0
    times["a"][1] = (3.0, 2.0, 0.5)  # a run on a machine twice the reference speed
    assert worker.pass_s(times) == 2.0  # a: middle of 1.0, 1.5, 2.0
