"""One workload process: timed set-up, timed operations, output checks, traced pass.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR --setup-only

Set-up is timed from before ``import nllc``.  The workload's operations then
run in turn, each timed and checked, while the next one is expected to end
within --seconds (each runs at least once).  Times are CPU seconds of this
process and the processes it waits for, which leave out the time spent
waiting for a core, at the reference speed of speed.py: a speed block is
timed after set-up and after every operation.  With --trace 1 the operations
get half the time, then one more pass over every operation runs with the
layer spans recorded.  The last stdout line is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()
CPU0 = time.process_time()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


# bounds the loop when operations fail at once
MAX_ROUNDS = 100


def cpu_s():
    """CPU seconds used so far by this process and the children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _run_op(wl, op):
    """Run one op; returns ((cpu seconds, wall seconds), outcome or the exception it raised)."""
    cpu, start = cpu_s(), time.perf_counter()
    try:
        outcome = wl.run(op)
    except Exception as exc:  # an op that raises counts as failed
        outcome = exc
    return (cpu_s() - cpu, time.perf_counter() - start), outcome


def _check(wl, op, outcome):
    """The problems found in one op's outcome; an empty list is a passed op."""
    if isinstance(outcome, Exception):
        return [f"{op}: raised {type(outcome).__name__}: {outcome}"]
    try:
        return wl.check(op, outcome)
    except Exception as exc:  # e.g. a truncated NLLC1 dump
        return [f"{op}: check raised {type(exc).__name__}: {exc}"]


def _timed_ops(wl, budget, problems, probe):
    """Untraced ops in turn, each checked, while the next one should end within budget.

    Every op runs at least once; budget is in wall seconds.  Returns
    {op: [(cpu seconds, wall seconds, scale) of each run]}, where scale is
    speed.REFERENCE_S over the mean of the speed block times taken just
    before and just after the run.
    """
    times = {op: [] for op in wl.ops()}
    start = time.perf_counter()
    before = probe.block_s()
    for op in itertools.cycle(times):
        done = times[op]
        if done and (time.perf_counter() - start + max(t[1] for t in done) > budget
                     or len(done) == MAX_ROUNDS):
            return times
        (cpu, wall), outcome = _run_op(wl, op)
        after = probe.block_s(probe.blocks_for(wall))
        done.append((cpu, wall, 2 * speed.REFERENCE_S / (before + after)))
        before = after
        problems.append(_check(wl, op, outcome))


def middle_mean(values):
    """Mean of the middle of the sorted values, without the (n + 1) // 4 lowest and highest.

    3 to 6 values lose one at each end; 1 or 2 lose none.
    """
    vals = sorted(values)
    k = (len(vals) + 1) // 4
    mid = vals[k:len(vals) - k]
    return sum(mid) / len(mid)


def _scaled_cpu(cpu, wall, scale):
    return cpu * scale


def pass_s(times, value=_scaled_cpu):
    """One pass: the sum over ops of the middle mean of each op's runs.

    value picks what is summed from a run's (cpu, wall, scale): by default
    its CPU seconds at the reference speed.  Single runs on the shared host
    take up to 2.5x their usual time at random moments, and less in other
    bursts.  Dropping each op's slowest and fastest runs leaves neither in
    the figure; averaging the rest spreads less than their median.
    """
    return sum(middle_mean(value(*t) for t in ts) for ts in times.values())


def _wall(cpu, wall, scale):
    return wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if args.workload == "cli_suite":
        import nllc.cli  # noqa: F401  cli_suite set-up is the import alone
        setup_s = time.process_time() - CPU0
    import layers
    import spans
    import workloads

    tracer = spans.Tracer()
    if args.trace:
        tracer.op = "setup"
        tracer.install(layers.TARGETS)
    wl = workloads.make(args.workload, args.seed, args.tmp, tracer if args.trace else None)
    if args.workload != "cli_suite":
        setup_s = time.process_time() - CPU0
    setup_wall_s = time.perf_counter() - T0
    tracer.uninstall()
    probe = speed.SpeedProbe()
    setup = {"setup_s": setup_s * speed.REFERENCE_S / probe.block_s(3), "setup_cpu_s": setup_s,
             "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    problems = []
    times = _timed_ops(wl, args.seconds / 2 if args.trace else args.seconds, problems, probe)
    if args.trace:
        tracer.install(layers.TARGETS)
        outcomes = []
        start = time.perf_counter()
        for op in wl.ops():
            tracer.op = op  # the operation id of every span the op opens
            outcomes.append((op, _run_op(wl, op)[1]))
        window = (start, time.perf_counter())
        tracer.uninstall()
        problems.extend(_check(wl, op, outcome) for op, outcome in outcomes)

    out = {
        **setup,
        "op_s": times,
        "cpu_s": pass_s(times),
        "wall_s": pass_s(times, _wall),
        "attempted": len(problems),
        "failed": sum(1 for p in problems if p),
        "problems": [msg for p in problems for msg in p][:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "child_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if args.trace:
        # spans hold wall time, so the traced pass is compared with the untraced wall time
        out["layers"] = layers.layer_metrics(tracer.spans, window, out["wall_s"])
        dump = args.tmp.parent / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps([vars(s) for s in tracer.spans]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
