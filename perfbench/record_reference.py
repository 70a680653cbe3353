"""Record the reference energies the output checks compare against.

    python3 perfbench/record_reference.py

Solves every op of el_s1, el_s2 and limit_vortex once at workload seed 0 and
writes their final energies, with the provenance of the run, to
perfbench/reference.json.  Run it only when the minimisers are meant to
change; a faster solver must reproduce the recorded energies.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    energies = {}
    for name in ("el_s1", "el_s2", "limit_vortex"):
        wl = workloads.make(name, 0, None)
        for op in wl.ops():
            energies[op] = wl.run(op).energies[-1]
            print(f"{op} {energies[op]!r}")
    out = {"provenance": run.provenance(0), "energies": energies}
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
