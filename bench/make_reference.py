"""Regenerate ``bench/reference.json``, the stored results the checks compare to.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py

For every solve workload, size and ds choice it runs one unit and
stores the kappa-arctan H1 distance of each step.  Run it only when a
change is meant to alter the computed branch, and say so in that change;
it takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

from muskatss.diagnostics import h1_distance

import workloads

# relative tolerance of the H1 check.  Re-solving a branch along another
# Levenberg-Marquardt path (a different fd_step) moves these distances by
# about 2e-9 relative; 1e-5 leaves room for reordered arithmetic while a
# change of the discretization still fails.
RTOL = 1e-5


def main() -> int:
    doc = {"rtol": RTOL, "h1": {}}
    for size in ("tiny", "full"):
        for name in ("branch-ref", "branch-coarse"):
            table = doc["h1"][f"{name}/{size}"] = {}
            for ds in workloads.DS_CHOICES:
                wl = workloads.SolveWorkload(name, 0, size, reference=())
                wl.ds, wl.s_max = ds, wl.nsteps * ds
                wl.setup()
                try:
                    _, branch = wl.run_unit()
                finally:
                    wl.close()
                if branch.failure is not None:
                    raise SystemExit(f"{name}/{size} ds={ds}: branch truncated")
                table[repr(ds)] = [h1_distance(st.profile, "kappa_arctan").h1_distance
                                   for st in branch.steps]
                print(name, size, ds, table[repr(ds)][-1], flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
