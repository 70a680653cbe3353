"""nllc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload el_s1 --seed 0 --seconds 26 --trace 0

Run from a checkout of the repository; nllc is imported from ``src/``.
Workloads: el_s1, el_s2, limit_vortex, cli_suite (see perfbench/README.md).
With --trace 0 it prints the end-to-end metrics (setup_s and cpu_s, in CPU
seconds at the reference speed of speed.py, and peak_rss_mb), with --trace 1
the per-layer metrics of a traced pass.  The
last stdout line is one JSON object {correct, attempted, failed, metrics}.
Scratch files go under .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("el_s1", "el_s2", "limit_vortex", "cli_suite")
# set-up-only processes run before and after the workload process, so the
# median of the three set-up times spans the whole run
SETUPS_AROUND = 1
TIMEOUT_S = 170
# One BLAS thread in every process the benchmark starts (set before numpy
# loads; children inherit it).  On a 2-core machine shared with other work, a
# two-thread BLAS call waits for whichever core is slowed down: over three
# alternating pairs of el_s2 runs, the runs' median pass times ranged over
# 22 % with two threads and 0.5 % with one.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _worker(args, tmp, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", str(tmp), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    return json.loads(lines[-1])


def provenance(seed) -> dict:
    """Machine, library versions, BLAS threads and source revision of this run."""
    import ctypes

    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    blas = None  # threads of the first OpenBLAS found (numpy's comes first)
    libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
    for path in sorted(libs, key=lambda p: "numpy" not in p):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if blas is None and hasattr(lib, sym):
                get = getattr(lib, sym)
                get.argtypes, get.restype = [], ctypes.c_int
                blas = get()
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "git_rev": rev,
        "git_dirty": dirty,
        "workload_seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nllc" / "__init__.py").is_file():
        print(f"error: no nllc sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    # every process of the run on one core, so that the speed blocks time the
    # core the operations ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tmp = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        around = 0 if args.trace else SETUPS_AROUND
        setups = [_worker(args, tmp, ["--setup-only"]) for _ in range(around)]
        res = _worker(args, tmp, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
        setups += [res]
        setups += [_worker(args, tmp, ["--setup-only"]) for _ in range(around)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    rss = res["child_peak_rss_mb"] if args.workload == "cli_suite" else res["peak_rss_mb"]
    print(f"provenance {json.dumps(provenance(args.seed))}")
    print(f"workload {args.workload} seed {args.seed}: set-ups (CPU s at the reference speed) "
          f"{' '.join('%.3f' % s['setup_s'] for s in setups)}, (CPU s) "
          f"{' '.join('%.3f' % s['setup_cpu_s'] for s in setups)}, (wall s) "
          f"{' '.join('%.3f' % s['setup_wall_s'] for s in setups)}")
    print(f"timed ops, CPU s / wall s x speed scale of each run; pass {res['cpu_s']:.3f} CPU s "
          f"at the reference speed, {res['wall_s']:.3f} wall s:")
    for op, times in res["op_s"].items():
        print(f"  {op:40s} {' '.join('%.3f/%.3f x%.3f' % tuple(t) for t in times)}")
    for msg in res["problems"]:
        print(f"FAILED {msg}")
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} operations)")
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "cpu_s": {"value": res["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
